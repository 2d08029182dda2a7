"""Line-oriented trace files: serialize and parse back, losslessly.

Three kinds, each one line per step plus a header:

* ``kind=generation``: a generation run.  Machine states are rendered as
  ``A#<hash>`` ids with one ``state <id> <encoding>`` sidecar line each;
  step lines name the state before, the emitted token, and the state
  after.
* ``kind=derivation``: a grammar derivation.  The grammar itself is
  embedded as ``g ``-prefixed lines in the grammar file format; step
  lines carry production index, position, and the resulting form.
* ``kind=report``: an extraction report.  Dynamic nonterminals are
  rendered as ``A#<hash>`` ids with ``nt`` sidecar lines carrying their
  full state encodings; production lines show the rewrite and its form
  check.

Encodings in sidecar lines are Python literals, so parsing recovers the
exact state.  ``parse_trace(serialize_trace(x)) == x`` for every value
the serializer accepts.  The empty string renders as ``_``.

Sidecar encodings are decoded without compiling them.  What ``repr``
writes for tuples of ``str``, ``int``, ``float``, ``bool`` and ``None`` is
JSON once its parentheses, quotes and three names are translated, so it is
read with ``json.loads`` and kept if it ``repr``s back to the very text:
then it is the value ``ast.literal_eval`` gives, with the same types.  Any
other text (escapes JSON lacks, other types, other spacing) goes to
``ast.literal_eval``.  A sidecar id must be ``A#`` and the first eight hex
digits of the sha256 of its encoding text, as the serializer writes it,
and no id may be declared twice.

Each call keeps one table, so each distinct item of a trace is checked,
or hashed to its id, once, and each distinct name is resolved once.
Sidecar lines appear in the order their ids are first seen.  The parser
refuses what the serializer cannot write: a terminal named ``B_dyn`` or
like an id, a reserved or undeclared name, and step lines not numbered
0, 1, 2, ... in file order.

A report's lines chain: each interior left side is the right side of the
line before, and each right side repeats the context α_t of its left
side.  Both directions reuse the line before where the lines chain: its
text or items stand for an equal left side, and the left side's context
for the head of the right side.  So each line resolves or renders only
its new items, and the rest is copying.  Lines that do not chain take the
general path and give the same text and values.

A report's text carries no production count, so a report cut after a
whole production line parses, with the cut run's header verdicts: the
serializer writes that very text for a shorter report.  To check a
report, rebuild it from its record with ``build_trace_report``.
"""

from __future__ import annotations

import ast
import json
import re
from typing import Iterable

from .autoregressive import GenerationRecord, GenerationStep, PredictorState
from .bridge import (
    B_DYN,
    DynamicNonterminal,
    DynamicProduction,
    FormCheck,
    FormCheckStatus,
    Item,
    TraceReport,
    _state_hash,
)
from .derivation import (
    DerivationStep,
    DerivationTrace,
    NoMatchError,
    OutOfRangeError,
    apply_step,
)
from .grammar_io import parse_grammar, render_grammar
from .symbols import Symbol, SymbolString, terminal


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


class _Renderer(dict):
    """One serialize call's table from each item to its text.

    An item is checked, or named by its ``A#`` id, when first missing;
    ``ids`` keeps the item and the state text behind each id in first-seen
    order, for the sidecar lines.
    """

    def __init__(self) -> None:
        super().__init__({B_DYN: "B_dyn"})
        self.ids: dict[str, tuple[PredictorState | DynamicNonterminal, str]] = {}

    def join(self, items: Iterable[object]) -> str:
        return " ".join(map(self.__getitem__, items)) or "_"

    def join_after(self, lhs: tuple, lhs_text: str, rhs: tuple) -> str:
        """``join(rhs)``, cut from ``lhs_text`` where ``rhs`` repeats ``lhs[:-1]``."""
        k = len(lhs) - 1
        if k < 1 or rhs[:k] != lhs[:k]:
            return self.join(rhs)
        context = lhs_text[: -len(self[lhs[-1]]) - 1]
        tail = rhs[k:]
        return f"{context} {' '.join(map(self.__getitem__, tail))}" if tail else context

    def __missing__(self, item) -> str:
        if isinstance(item, (PredictorState, DynamicNonterminal)):
            state = item.state if isinstance(item, DynamicNonterminal) else item
            text = repr((state.family, state.encoding))
            name = f"A#{_state_hash(state, text)}"
            if name in self.ids:
                raise ValueError(f"state id collision on {name}")
            self.ids[name] = (item, text)
        elif not item.is_terminal:
            raise ValueError(f"only terminal symbols appear in traces, got {item!r}")
        elif item.name == "B_dyn" or _ID_RE.match(item.name):
            raise ValueError(f"symbol name {item.name!r} collides with trace rendering")
        else:
            name = item.name
        self[item] = name
        return name


class _Names(dict):
    """One parse call's table from each name to its item.

    Seeded with ``B_dyn`` and the ``A#`` ids as their sidecar lines are read;
    any other name is checked and interned as a terminal when first missing.
    ``line`` is the line being read, for the errors.
    """

    def __init__(self) -> None:
        super().__init__(B_dyn=B_DYN)
        self.line = 1

    def __missing__(self, name: str) -> Symbol:
        if _ID_RE.match(name):
            raise TraceParseError(f"unknown dynamic id {name}", self.line)
        try:
            symbol = terminal(name)
        except ValueError as e:
            raise TraceParseError(str(e), self.line) from None
        self[name] = symbol
        return symbol

    def items(self, raw: str) -> tuple[Item, ...]:
        return () if raw == "_" else tuple(map(self.__getitem__, raw.split()))

    def items_after(self, lhs_raw: str, lhs: tuple[Item, ...], raw: str) -> tuple[Item, ...]:
        """``items(raw)``, taking ``lhs[:-1]`` where ``raw`` repeats the context of ``lhs_raw``.

        The context is all of ``lhs_raw`` before a trailing id, which holds no space.
        """
        context, _, last = lhs_raw.rpartition(" ")
        if _ID_RE.match(last) and raw.startswith(context) and raw.startswith(" ", len(context)):
            return lhs[:-1] + tuple(map(self.__getitem__, raw[len(context) + 1 :].split()))
        return self.items(raw)

    def symbol(self, name: str) -> Symbol:
        item = self[name]
        if not isinstance(item, Symbol):
            raise TraceParseError(f"symbol name {name!r} collides with trace rendering", self.line)
        return item

    def symbols(self, raw: str) -> SymbolString:
        """``_`` or terminal names: a prompt or a replay result."""
        return SymbolString(() if raw == "_" else tuple(map(self.symbol, raw.split())))

    def state(self, sid: str, raw: str) -> PredictorState:
        """The state a sidecar line declares as ``sid``, with its id checked."""
        try:
            family, encoding = _literal(raw)
        except (ValueError, SyntaxError, TypeError):
            raise TraceParseError(f"bad state encoding {raw!r}", self.line) from None
        if not isinstance(family, str):
            raise TraceParseError("state family must be a string", self.line)
        state = PredictorState(family, encoding)
        try:
            hash(state)
        except TypeError:
            raise TraceParseError(f"unhashable state encoding {raw!r}", self.line) from None
        if sid != f"A#{_state_hash(state, raw)}":
            raise TraceParseError(f"state id {sid} does not match its encoding", self.line)
        if sid in self:
            raise TraceParseError(f"state id {sid} is declared twice", self.line)
        return state


def _check_step(raw: str, expected: int, line: int) -> None:
    if raw != str(expected):
        raise TraceParseError(f"step={raw} out of order, expected step={expected}", line)


_JSON_BRACKETS = str.maketrans("()'", '[]"')


def _tuples(values: list) -> tuple:
    return tuple([_tuples(v) if type(v) is list else v for v in values])


def _literal(raw: str) -> object:
    """``ast.literal_eval(raw)``, decoded as JSON where ``raw`` is what ``repr`` writes."""
    text = raw.replace(",)", ")").translate(_JSON_BRACKETS)
    text = text.replace("None", "null").replace("True", "true").replace("False", "false")
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        return ast.literal_eval(raw)
    if type(value) is list:
        value = _tuples(value)
    return value if repr(value) == raw else ast.literal_eval(raw)


# ---------------------------------------------------------------------------
# generation records


def _serialize_generation(rec: GenerationRecord) -> str:
    name = _Renderer()
    initial_id = name[rec.initial_state]
    step_lines = []
    for i, step in enumerate(rec.steps):
        before, after = name[step.state_before], name[step.state_after]
        step_lines.append(f"step={i} before={before} token={name[step.token]} after={after}")
    header = (
        f"kind=generation seed={rec.seed} policy={rec.policy}"
        f" termination={rec.termination} conforming={str(rec.conforming).lower()}"
        f" initial={initial_id} prompt={name.join(rec.prompt)}"
    )
    state_lines = [f"state {sid} {text}" for sid, (_, text) in name.ids.items()]
    return "\n".join([header] + state_lines + step_lines) + "\n"


def _parse_generation(lines: list[str]) -> GenerationRecord:
    m = _GEN_HEADER_RE.match(lines[0])
    if not m:
        raise TraceParseError("bad generation header", 1)
    seed, policy, termination, conforming, initial_id, prompt_raw = m.groups()
    names = _Names()
    steps: list[GenerationStep] = []
    for n, line in enumerate(lines[1:], start=2):
        names.line = n
        sm = _STATE_RE.match(line)
        if sm:
            sid, raw = sm.groups()
            names[sid] = names.state(sid, raw)
            continue
        pm = _GEN_STEP_RE.match(line)
        if not pm:
            raise TraceParseError(f"unrecognized line {line!r}", n)
        step, before, token, after = pm.groups()
        _check_step(step, len(steps), n)
        before, after = names.get(before), names.get(after)
        if before is None or after is None:
            raise TraceParseError("step references an unknown state id", n)
        steps.append(GenerationStep(before, names.symbol(token), after))
    if initial_id not in names:
        raise TraceParseError("initial state id is not in the table", 1)
    names.line = 1
    prompt = names.symbols(prompt_raw)
    return GenerationRecord(
        prompt=prompt,
        steps=tuple(steps),
        final=prompt + tuple(s.token for s in steps),
        termination=termination,
        seed=int(seed),
        policy=policy,
        initial_state=names[initial_id],
        conforming=conforming == "true",
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
        step, prod, pos, after_raw = m.groups()
        _check_step(step, len(steps), n)
        try:
            after = SymbolString(()) if after_raw == "_" else grammar.string_of(after_raw.split())
        except KeyError as e:
            raise TraceParseError(e.args[0], n) from None
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
    if len(report.form_checks) != len(report.productions):
        raise ValueError("one form check per production is required")
    name = _Renderer()
    header = (
        f"kind=report seed={report.seed} policy={report.policy}"
        f" termination={report.termination}"
        f" conforming={str(report.conforming).lower()}"
    )
    if report.replay_result is not None:
        header += f" replay={name.join(report.replay_result)}"
    step_lines = []
    rhs, rhs_text = None, ""  # the line before's right side
    for i, (p, check) in enumerate(zip(report.productions, report.form_checks)):
        lhs_text = rhs_text if p.lhs == rhs else name.join(p.lhs)
        rhs, rhs_text = p.rhs, name.join_after(p.lhs, lhs_text, p.rhs)
        line = (
            f"step={i} kind={p.kind} lhs={lhs_text}"
            f" -> rhs={rhs_text} check={check.status.value}"
        )
        if check.reason is not None:
            line += f" reason={check.reason}"
        step_lines.append(line)
    nt_lines = [f"nt {sid} t={nt.t} {text}" for sid, (nt, text) in name.ids.items()]
    return "\n".join([header] + nt_lines + step_lines) + "\n"


def _parse_report(lines: list[str]) -> TraceReport:
    m = _REPORT_HEADER_RE.match(lines[0])
    if not m:
        raise TraceParseError("bad report header", 1)
    seed, policy, termination, conforming, replay_raw = m.groups()
    names = _Names()
    productions: list[DynamicProduction] = []
    checks: list[FormCheck] = []
    prev_rhs_raw, rhs = None, ()  # the line before's right side
    for n, line in enumerate(lines[1:], start=2):
        names.line = n
        nm = _NT_RE.match(line)
        if nm:
            sid, t, raw = nm.groups()
            names[sid] = DynamicNonterminal(names.state(sid, raw), int(t))
            continue
        pm = _REPORT_STEP_RE.match(line)
        if not pm:
            raise TraceParseError(f"unrecognized line {line!r}", n)
        step, kind, lhs_raw, rhs_raw, status, reason = pm.groups()
        _check_step(step, len(productions), n)
        lhs = rhs if lhs_raw == prev_rhs_raw else names.items(lhs_raw)
        rhs = names.items_after(lhs_raw, lhs, rhs_raw)
        prev_rhs_raw = rhs_raw
        productions.append(DynamicProduction(kind, lhs, rhs))
        checks.append(FormCheck(FormCheckStatus(status), reason))
    names.line = 1
    return TraceReport(
        productions=tuple(productions),
        form_checks=tuple(checks),
        replay_result=None if replay_raw is None else names.symbols(replay_raw),
        conforming=conforming == "true",
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
