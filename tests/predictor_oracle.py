"""The grammar and toy-attention predictor steps, as computed before integer beliefs.

Kept verbatim as the reference that ``test_predictors_differential.py``
compares :class:`lcsg.GrammarPredictor` and
:class:`lcsg.ToyAttentionPredictor` against.  ``GrammarPredictor`` keeps
its beliefs as ``Fraction`` values and reduces every product and sum.
``ToyAttentionPredictor`` computes the full causal attention matrix and
reads its last row; it reuses the library class's seeded weights and
overrides only ``next_distribution``.  Only the imports are absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lcsg import predictors
from lcsg.autoregressive import (
    END,
    PredictorState,
    Token,
    TokenDistribution,
    UnknownTokenError,
)
from lcsg.grammar import ProductionClass, classify_production, validate_grammar
from lcsg.predictors import (
    _MAX_POSITIONS,
    ImpossibleContextError,
    NotLeftLinearizableError,
)
from lcsg.stochastic import DeadEndError, WeightedGrammar, ZeroMassError
from lcsg.symbols import Symbol, SymbolString


@dataclass(frozen=True)
class _Expansion:
    """One production prepared for belief expansion at a pending nonterminal."""

    gamma: tuple[str, ...]  # terminal left context required of the emitted prefix
    emitted: tuple[str, ...]  # terminals the production appends
    next_nt: str | None  # trailing nonterminal of the appended part, if any
    misshapen: bool  # appended part is not "terminals then one nonterminal"
    weight: Fraction


_Status = tuple[tuple[str, ...], str | None]  # (unemitted buffer, pending nonterminal)
_EXPANSION_ROUNDS = 10_000


class GrammarPredictor:
    """The state is a pure function of the context: the pair (recent window,
    posterior statuses).  Belief arithmetic is exact (rational), so two
    contexts that induce the same posterior really do share one state
    encoding; probabilities appear in encodings as (numerator, denominator)
    pairs.  Each call resumes from the longest prefix of its context
    already consumed, so the state argument is accepted for protocol
    uniformity but carries no extra information.  The memo of consumed
    prefixes is unbounded: it keeps the belief after every distinct prefix
    the predictor has seen."""

    family = "grammar"
    finite_state = True

    def __init__(self, wg: WeightedGrammar):
        g = wg.grammar
        report = validate_grammar(g)
        if not report.is_valid:
            raise ValueError(f"invalid grammar: {report.violations[0]}")
        for p in g.productions:
            if ProductionClass.LEFT_CS not in classify_production(p):
                raise ValueError(f"production is not left context-sensitive: {p}")
        self.wg = wg
        self.vocabulary: tuple[Symbol, ...] = tuple(
            sorted(g.terminals, key=lambda s: s.name)
        )
        self._terminals = {s for s in g.terminals if s.is_terminal}
        self._context_need = max((len(p.lhs) - 1 for p in g.productions), default=0)
        self._table: dict[str, list[_Expansion]] = {}
        for p, w in zip(g.productions, wg.weights):
            gamma = p.lhs[:-1]
            if not gamma.is_all_terminal():
                continue  # can never match an all-terminal emitted prefix
            appended = p.rhs[len(gamma):]
            next_nt: str | None = None
            body = appended
            if len(body) and body[-1].is_nonterminal:
                next_nt = body[-1].name
                body = body[:-1]
            misshapen = not body.is_all_terminal()
            self._table.setdefault(p.lhs[-1].name, []).append(
                _Expansion(gamma.names(), body.names(), next_nt, misshapen, Fraction(w))
            )
        belief0: dict[_Status, Fraction] = {((), g.start.name): Fraction(1)}
        belief, recent = self._consume(belief0, (), ())
        # memo of consumed contexts; grows with the distinct contexts seen
        self._cache: dict[tuple[str, ...], tuple[dict[_Status, Fraction], tuple[str, ...]]]
        self._cache = {(): (belief, recent)}
        self.initial_state = self._encode(belief, recent)

    # -- belief bookkeeping

    def _expand(
        self, belief: dict[_Status, Fraction], recent: tuple[str, ...]
    ) -> dict[_Status, Fraction]:
        """Drain every (empty buffer, pending nonterminal) entry."""
        zero = Fraction(0)
        for _ in range(_EXPANSION_ROUNDS):
            pending = [s for s in belief if not s[0] and s[1] is not None]
            if not pending:
                return belief
            grown: dict[_Status, Fraction] = {}
            for status, mass in belief.items():
                buffer, nt = status
                if buffer or nt is None:
                    grown[status] = grown.get(status, zero) + mass
                    continue
                candidates = [
                    e
                    for e in self._table.get(nt, [])
                    if len(e.gamma) <= len(recent)
                    and recent[len(recent) - len(e.gamma):] == e.gamma
                ]
                if not candidates:
                    raise DeadEndError(f"no production rewrites {nt} after {recent}")
                total = sum(e.weight for e in candidates)
                if total == 0:
                    raise ZeroMassError(f"weights for {nt} sum to zero after {recent}")
                for e in candidates:
                    if e.misshapen:
                        raise NotLeftLinearizableError(
                            "a reachable form places a nonterminal left of a terminal"
                        )
                    child: _Status = (e.emitted, e.next_nt)
                    grown[child] = grown.get(child, zero) + mass * (e.weight / total)
            belief = grown
        raise ValueError("unit-production cycle: belief expansion did not settle")

    def _consume(
        self,
        belief: dict[_Status, Fraction],
        recent: tuple[str, ...],
        names: tuple[str, ...],
    ) -> tuple[dict[_Status, Fraction], tuple[str, ...]]:
        zero = Fraction(0)
        belief = self._expand(belief, recent)
        for name in names:
            kept: dict[_Status, Fraction] = {}
            kept_mass = zero
            for status in belief:
                buffer, nt = status
                if buffer and buffer[0] == name:
                    child: _Status = (buffer[1:], nt)
                    kept[child] = kept.get(child, zero) + belief[status]
                    kept_mass += belief[status]
            if kept_mass == 0:
                raise ImpossibleContextError(f"the grammar cannot produce token {name!r} here")
            belief = {s: p / kept_mass for s, p in kept.items()}
            if self._context_need:
                recent = (recent + (name,))[-self._context_need:]
            belief = self._expand(belief, recent)
        return belief, recent

    def _encode(
        self, belief: dict[_Status, Fraction], recent: tuple[str, ...]
    ) -> PredictorState:
        statuses = tuple(
            (buf, nt, (belief[(buf, nt)].numerator, belief[(buf, nt)].denominator))
            for buf, nt in sorted(belief, key=lambda s: (s[0], s[1] or ""))
        )
        return PredictorState(self.family, (recent, statuses))

    def _belief_for(
        self, names: tuple[str, ...]
    ) -> tuple[dict[_Status, Fraction], tuple[str, ...]]:
        """Posterior after the whole context, one new token at a time."""
        i = len(names)
        while names[:i] not in self._cache:
            i -= 1
        belief, recent = self._cache[names[:i]]
        for j in range(i, len(names)):
            belief, recent = self._consume(dict(belief), recent, (names[j],))
            self._cache[names[: j + 1]] = (belief, recent)
        return belief, recent

    def next_distribution(
        self, state: PredictorState, context: SymbolString
    ) -> tuple[TokenDistribution, PredictorState]:
        for s in context:
            if s not in self._terminals:
                raise UnknownTokenError(f"token outside the grammar's terminals: {s!r}")
        belief, recent = self._belief_for(context.names())

        zero = Fraction(0)
        per_token = {s.name: zero for s in self.vocabulary}
        end_mass = zero
        for (buffer, nt), p in belief.items():
            if buffer:
                per_token[buffer[0]] += p
            elif nt is None:
                end_mass += p
        entries: list[tuple[Token, float]] = [
            (s, float(per_token[s.name])) for s in self.vocabulary
        ]
        entries.append((END, float(end_mass)))
        return TokenDistribution(tuple(entries)), self._encode(belief, recent)


class ToyAttentionPredictor(predictors.ToyAttentionPredictor):
    def next_distribution(
        self, state: PredictorState, context: SymbolString
    ) -> tuple[TokenDistribution, PredictorState]:
        rows = [self.bos + self.positional[0]]
        for i, s in enumerate(context, start=1):
            if s not in self._index:
                raise UnknownTokenError(f"token outside the vocabulary: {s!r}")
            if i >= _MAX_POSITIONS:
                raise ValueError(f"context exceeds {_MAX_POSITIONS - 1} tokens")
            rows.append(self.embeddings[self._index[s]] + self.positional[i])
        x = np.stack(rows)
        q, k, v = x @ self.w_query, x @ self.w_key, x @ self.w_value
        scores = (q @ k.T) / math.sqrt(self.embed_dim)
        mask = np.triu(np.ones(scores.shape, dtype=bool), k=1)
        scores = np.where(mask, -np.inf, scores)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        hidden = weights @ v
        logits = hidden[-1] @ self.w_out
        exps = np.exp(logits - logits.max())
        probs = exps / exps.sum()
        entries: list[tuple[Token, float]] = [
            (s, float(probs[i])) for i, s in enumerate(self.vocabulary)
        ]
        entries.append((END, float(probs[-1])))
        next_state = PredictorState(self.family, context.names())
        return TokenDistribution(tuple(entries)), next_state
