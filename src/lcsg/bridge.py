"""From generation runs to left context-sensitive derivations and back.

A generation run visits configurations (context, machine state).  Reading
the run as a grammar derivation, each machine state at step t becomes a
dynamic nonterminal A_t, and the run becomes the production sequence

    B_dyn -> alpha_0 A_0
    alpha_t A_t -> alpha_t tau_{t+1} A_{t+1}      (one per emitted token)
    A_T -> lambda

where alpha_t is the context at step t.  Each form alpha_t A_t is the
right side of one production and the left side of the next, so each
interior left side is the right side before it, one shared tuple.
Interior productions keep their left context intact and append
material, so each one is left context-sensitive; the closing production
erases the last nonterminal and is exempt from that check (its appended
part is empty, which the form rule does not admit).
``extract_productions`` builds the sequence from a record in one pass,
``check_left_cs_form`` verifies each production by the one rule that also
classifies grammar productions as ``LEFT_CS`` (``grammar._left_cs_defect``),
and ``replay`` re-runs the sequence from B_dyn to recover the final string.

``induce_grammar`` goes the other way for finite-state predictors: it
walks the reachable states breadth-first up to a context-length horizon
and writes each transition down as a static weighted production
A_s -> tau A_s', with A_s -> lambda carrying the END probability.  A state
first reached exactly at the horizon is not expanded: the mass of its
tokens goes to one unit production A_s -> esc, and esc -> tau esc never
ends.  So every string up to the horizon comes out with its exact
probability, and the mass that would run past the horizon is the
residual that no terminal string gets.  One helper,
``_fresh_nonterminal``, names every induced nonterminal, the start and esc
included.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence, Union

from .autoregressive import (
    EndOfSequence,
    GenerationRecord,
    Predictor,
    PredictorState,
)
from .derivation import DEFAULT_FUEL, enumerate_language
from .grammar import Grammar, Production, _left_cs_defect
from .stochastic import WeightedGrammar
from .symbols import EMPTY, Symbol, SymbolString, nonterminal, terminal


class NonconformingRecordError(ValueError):
    """The record used a sliding window, so contexts do not nest."""


class ReplayMismatchError(ValueError):
    """A production's left side does not match the current form."""

    def __init__(self, index: int, message: str):
        super().__init__(f"production {index}: {message}")
        self.index = index


class UnsupportedInfiniteStateError(ValueError):
    """Induction needs a finite-state predictor family."""


class StateBudgetExceededError(RuntimeError):
    """Induction discovered more states than the configured cap."""


@dataclass(frozen=True)
class DynamicStart:
    """The synthetic start symbol of a run's dynamic grammar."""

    def __repr__(self) -> str:
        return "B_dyn"


B_DYN = DynamicStart()


def _state_hash(state: PredictorState, text: str | None = None) -> str:
    """The eight-hex-digit id that names ``state`` in grammars and traces.

    The id hashes the state's text, ``repr((state.family, state.encoding))``;
    a caller that has built that text already passes it as ``text``.
    """
    if text is None:
        text = repr((state.family, state.encoding))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


@dataclass(frozen=True)
class DynamicNonterminal:
    """A machine state in its role as a grammar nonterminal.

    Two dynamic nonterminals are equal exactly when their state encodings
    are equal; the step index is bookkeeping and does not participate.
    """

    state: PredictorState
    t: int = field(compare=False)

    @property
    def short_id(self) -> str:
        return _state_hash(self.state)

    def __repr__(self) -> str:
        return f"A#{self.short_id}"


Item = Union[Symbol, DynamicNonterminal, DynamicStart]


def _is_nonterminal_item(item: Item) -> bool:
    if isinstance(item, (DynamicNonterminal, DynamicStart)):
        return True
    return isinstance(item, Symbol) and item.is_nonterminal


_KINDS = ("initial", "interior", "terminal")


@dataclass(frozen=True)
class DynamicProduction:
    """One production of a run's dynamic grammar."""

    kind: str
    lhs: tuple[Item, ...]
    rhs: tuple[Item, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))


class FormCheckStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    EXEMPT_TERMINAL = "exempt"


@dataclass(frozen=True)
class FormCheck:
    status: FormCheckStatus
    reason: str | None = None


def check_left_cs_form(p: DynamicProduction) -> FormCheck:
    """Decide whether ``p`` rewrites a trailing nonterminal in place.

    Passing means the left side decomposes as (context, nonterminal), the
    right side repeats the context verbatim and appends at least one
    symbol: the ``LEFT_CS`` rule of ``grammar``.  The closing production
    appends nothing; it is reported exempt rather than failing.
    """
    ends = bool(p.lhs) and _is_nonterminal_item(p.lhs[-1])
    defect = _left_cs_defect(p.lhs, p.rhs, ends)
    if defect is None:
        return FormCheck(FormCheckStatus.PASS)
    if defect == "empty_remainder" and p.kind == "terminal":
        return FormCheck(FormCheckStatus.EXEMPT_TERMINAL)
    return FormCheck(FormCheckStatus.FAIL, defect)


def extract_productions(rec: GenerationRecord) -> tuple[DynamicProduction, ...]:
    """The dynamic production sequence of a conforming run.

    Always 1 initial + len(rec.steps) interior + 1 terminal productions.
    The interior production for step t carries the context snapshot
    alpha_t = prompt plus the first t emitted tokens.  Its left side is the
    very tuple that the production before it has as its right side, so each
    form of the run is built and held once.
    """
    if not rec.conforming:
        raise NonconformingRecordError(
            "sliding-window records are refused: contexts do not nest"
        )
    state = rec.initial_state
    form = tuple(rec.prompt) + (DynamicNonterminal(state, 0),)
    productions = [DynamicProduction("initial", (B_DYN,), form)]
    for t, step in enumerate(rec.steps):
        if step.state_before != state:
            raise ValueError(f"step {t}: recorded states do not chain")
        state = step.state_after
        grown = form[:-1] + (step.token, DynamicNonterminal(state, t + 1))
        productions.append(DynamicProduction("interior", form, grown))
        form = grown
    productions.append(DynamicProduction("terminal", form[-1:], ()))
    return tuple(productions)


def replay(productions: Sequence[DynamicProduction]) -> SymbolString:
    """Re-run a dynamic production sequence from B_dyn.

    Initial and interior productions must match the whole current form;
    the terminal production erases the form's trailing nonterminal.
    Returns the final all-terminal string.
    """
    form: tuple[Item, ...] = (B_DYN,)
    for index, p in enumerate(productions):
        if p.kind == "terminal":
            if len(p.lhs) != 1 or not form or form[-1] != p.lhs[0]:
                raise ReplayMismatchError(
                    index, "closing left side does not match the form's tail"
                )
            form = form[:-1] + p.rhs
        else:
            if form != p.lhs:
                raise ReplayMismatchError(index, "left side does not match the form")
            form = p.rhs
    bad = [s for s in form if not (isinstance(s, Symbol) and s.is_terminal)]
    if bad:
        raise ReplayMismatchError(
            len(productions), f"replay left non-terminal material: {bad[0]!r}"
        )
    return SymbolString(form)


@dataclass(frozen=True)
class TraceReport:
    """Extracted productions, their form checks, and the replay verdict."""

    productions: tuple[DynamicProduction, ...]
    form_checks: tuple[FormCheck, ...]
    replay_result: SymbolString | None
    conforming: bool
    seed: int
    policy: str
    termination: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "productions", tuple(self.productions))
        object.__setattr__(self, "form_checks", tuple(self.form_checks))


def build_trace_report(rec: GenerationRecord) -> TraceReport:
    """Extract, check, and replay a record in one pass."""
    productions = extract_productions(rec)
    checks = tuple(check_left_cs_form(p) for p in productions)
    try:
        result: SymbolString | None = replay(productions)
    except ReplayMismatchError:
        result = None
    # the last production, and only it, is the closing one
    checks_ok = all(c.status is FormCheckStatus.PASS for c in checks[:-1])
    return TraceReport(
        productions=productions,
        form_checks=checks,
        replay_result=result,
        conforming=checks_ok and result == rec.final,
        seed=rec.seed,
        policy=rec.policy,
        termination=rec.termination,
    )


def _fresh_nonterminal(candidate: str, used: set[str]) -> Symbol:
    """The first of ``candidate``, ``candidate_2``, ... not in ``used``; adds its name."""
    name, n = candidate, 2
    while name in used:
        name = f"{candidate}_{n}"
        n += 1
    used.add(name)
    return nonterminal(name)


def _state_candidate(state: PredictorState) -> str:
    enc = state.encoding
    if (
        state.family == "ngram"
        and isinstance(enc, tuple)
        and all(isinstance(x, str) for x in enc)
    ):
        return "s_BOS" if not enc else "s_" + "_".join(enc)
    return "s_" + _state_hash(state)


def induce_grammar(
    predictor: Predictor,
    vocab: Sequence[str] | None = None,
    max_context_len: int = 8,
    state_budget: int = 10_000,
) -> WeightedGrammar:
    """Write a finite-state predictor down as an explicit weighted grammar.

    Breadth-first over reachable states: one nonterminal per distinct
    state, a production A_s -> tau A_s' per positive-probability
    transition, A_s -> lambda weighted by the END probability, and a start
    production B -> A_s0 for the state reached on the empty context.
    Exploration stops at contexts of ``max_context_len`` tokens.  A state
    first reached there with token mass m > 0 gets a unit production
    A_s -> esc of weight m, where esc's one production ``esc -> tau esc``,
    with tau the first vocabulary terminal, never ends; esc is added only
    when some state needs it.  So every string up to the horizon gets its
    exact probability, and sampling runs past the horizon until truncated
    rather than dead-ending.
    """
    if not getattr(predictor, "finite_state", False):
        raise UnsupportedInfiniteStateError(
            f"predictor family {predictor.family!r} is declared infinite-state"
        )
    if max_context_len < 0:
        raise ValueError("max_context_len must be >= 0")
    if state_budget < 1:
        raise ValueError("state_budget must be >= 1")
    names = tuple(vocab) if vocab is not None else tuple(
        s.name for s in predictor.vocabulary
    )
    terminals = tuple(terminal(n) for n in names)
    known = set(names)

    used = set(names)
    dist0, s0 = predictor.next_distribution(predictor.initial_state, EMPTY)
    visited: dict[PredictorState, Symbol] = {s0: _fresh_nonterminal(_state_candidate(s0), used)}
    queue: deque[tuple[PredictorState, tuple[Symbol, ...], object]] = deque(
        [(s0, (), dist0)]
    )
    productions: list[Production] = []
    escape = EMPTY  # the form esc, once a horizon state needs it
    while queue:
        state, witness, dist = queue.popleft()
        lhs = SymbolString((visited[state],))
        at_horizon = len(witness) == max_context_len
        mass = 0.0
        for token, p in dist.entries:
            if p <= 0.0:
                continue
            if isinstance(token, EndOfSequence):
                productions.append(Production(lhs, EMPTY, weight=p))
                continue
            if token.name not in known:
                raise ValueError(
                    f"vocabulary does not cover reachable token {token.name!r}"
                )
            if at_horizon:
                mass += p
                continue
            grown = witness + (token,)
            dist2, s2 = predictor.next_distribution(state, SymbolString(grown))
            if s2 not in visited:
                if len(visited) >= state_budget:
                    raise StateBudgetExceededError(
                        f"more than {state_budget} reachable states"
                    )
                visited[s2] = _fresh_nonterminal(_state_candidate(s2), used)
                queue.append((s2, grown, dist2))
            productions.append(
                Production(lhs, SymbolString((token, visited[s2])), weight=p)
            )
        if mass > 0.0:
            if not escape:
                esc = _fresh_nonterminal("esc", used)
                escape = SymbolString((esc,))
                loop = SymbolString((terminals[0], esc))
                productions.append(Production(escape, loop, weight=1.0))
            productions.append(Production(lhs, escape, weight=mass))
    start = _fresh_nonterminal("B", used)
    wiring = Production(
        SymbolString((start,)), SymbolString((visited[s0],)), weight=1.0
    )
    grammar = Grammar(
        nonterminals={start, *visited.values(), *escape},
        terminals=set(terminals),
        start=start,
        productions=[wiring] + productions,
    )
    return WeightedGrammar.from_grammar(grammar)


def lambda_free_skeleton(wg: WeightedGrammar) -> Grammar:
    """The token-emitting transition structure of an induced grammar.

    Drops every lambda production and the start wiring, making the first
    wired state the start symbol.  What remains is the part that actually
    emits tokens, which for suffix-state predictors is right-linear.
    """
    g = wg.grammar
    new_start = g.start
    kept: list[Production] = []
    rewired = False
    for p in g.productions:
        if (
            not rewired
            and len(p.lhs) == 1
            and p.lhs[0] == g.start
            and len(p.rhs) == 1
            and p.rhs[0].is_nonterminal
        ):
            new_start = p.rhs[0]
            rewired = True
            continue
        if len(p.rhs) == 0:
            continue
        kept.append(p)
    nts = set(g.nonterminals)
    if rewired and all(
        g.start not in p.lhs and g.start not in p.rhs for p in kept
    ):
        nts.discard(g.start)
    return Grammar(nts, g.terminals, new_start, kept)


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    max_len: int
    counterexample: SymbolString | None = None


def check_weak_equivalence(
    g1: Grammar, g2: Grammar, max_len: int, fuel: int = DEFAULT_FUEL
) -> EquivalenceVerdict:
    """Compare the two languages on every string up to ``max_len``.

    On mismatch the counterexample is the lexicographically smallest
    string in the symmetric difference.  Both grammars must share one
    terminal alphabet.
    """
    if frozenset(g1.terminals) != frozenset(g2.terminals):
        raise ValueError("grammars must share one terminal alphabet")
    lang1 = enumerate_language(g1, max_len, fuel)
    lang2 = enumerate_language(g2, max_len, fuel)
    difference = lang1 ^ lang2
    if not difference:
        return EquivalenceVerdict(True, max_len)
    witness = min(difference, key=lambda w: w.names())
    return EquivalenceVerdict(False, max_len, witness)
