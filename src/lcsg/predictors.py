"""The three predictor families.

``grammar_predictor`` turns a weighted left context-sensitive grammar whose
sentential forms stay in the shape ``terminals, then at most one
nonterminal`` into a next-token predictor.  The predictor tracks the exact
posterior over the pending tail of the derivation given the tokens emitted
so far: each belief entry is a pair of (unemitted terminal buffer, pending
nonterminal or completion), and its probability.  The next-token
distribution marginalizes that belief, so END receives exactly the
probability that the derivation has already completed at the current
context.  Chained over a whole run, the predicted conditionals multiply out
to the grammar's own string probabilities.  The productions that may
rewrite a pending nonterminal come from the one rewrite loop,
``derivation._rewrites``, over the grammar's one compiled view: they are
the rewrites of the form (recent tokens, that nonterminal).

``ngram_train`` builds a k-gram predictor: the state is the last
``min(k, len(context))`` tokens, transition counts are plain maximum
likelihood with END appended to every corpus line, and contexts never seen
in training fall back to the uniform distribution over vocabulary plus END.

``toy_attention_predictor`` is a single-layer, single-head causal
self-attention network with deterministically seeded weights.  With
vocabulary size n, embedding width d, and a context of L tokens it
computes:

    X[0]   = bos + P[0]
    X[i]   = E[token_i] + P[i]                      for i = 1..L
    P[p,j] = sin(p / 10000^(j/d))   for even j
             cos(p / 10000^((j-1)/d)) for odd j
    Q = X Wq,  K = X Wk,  V = X Wv
    S = Q K^T / sqrt(d),  masked to j <= i, row-softmaxed into A
    H = A V
    probs = softmax(H[L] Wo)        over the n tokens, then END

Only the last row is read, so only it is computed, by the same formula:
``q = X[L] Wq``, ``A[L] = softmax(K q / sqrt(d))`` and ``H[L] = A[L] V``.
The mask hides nothing from the last row, so it is not applied.  Each call
still builds K and V for the whole context; nothing is kept between calls.

Weights are drawn from ``numpy.random.default_rng(seed)`` (PCG64) as
uniform(-0.5, 0.5) in the fixed order E (n x d), bos (d), Wq, Wk, Wv
(d x d each), Wo (d x (n+1)).  Positions are capped at 64, counting the
leading bos row.  The state encodes the full consumed context, so this
family is declared infinite-state.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .autoregressive import (
    END,
    PredictorState,
    Token,
    TokenDistribution,
    UnknownTokenError,
)
from .derivation import _compiled, _rewrites
from .grammar import ProductionClass, classify_production, validate_grammar
from .stochastic import DeadEndError, WeightedGrammar, ZeroMassError
from .symbols import Symbol, SymbolString, nonterminal, terminal


class NotLeftLinearizableError(ValueError):
    """A reachable sentential form places a nonterminal left of a terminal."""


class EmptyCorpusError(ValueError):
    """The training corpus has no lines."""


class ImpossibleContextError(ValueError):
    """The context has zero probability under the predictor's grammar."""


# ---------------------------------------------------------------------------
# Grammar-backed predictor


_Status = tuple[tuple[str, ...], str | None]  # (unemitted buffer, pending nonterminal)
_Belief = dict[_Status, int]  # numerators over one shared denominator
_Rule = tuple[tuple[tuple[_Status, int], ...], int]  # (child, weight) pairs and their total


class GrammarPredictor:
    """The state is a pure function of the context: the pair (recent window,
    posterior statuses).  Belief arithmetic is exact: a belief holds one
    integer numerator per status over one shared integer denominator, so
    two contexts that induce the same posterior really do share one state
    encoding; probabilities appear in encodings as reduced (numerator,
    denominator) pairs, and each next-token probability is the correctly
    rounded quotient of its numerator and the denominator.

    The candidates that rewrite a pending nonterminal after a recent window
    are the one rewrite loop's rewrites of the form (window, nonterminal):
    its one nonterminal is last and every production is left
    context-sensitive, so each keeps the window and appends to it.  They
    form a rule, built once and memoized: its children with integer weight
    numerators over their integer total (the weights are floats, so each is
    a dyadic rational).  There are at most |N| rules per window of at most
    k tokens, for k the longest production context: about |N| x |V|^k.  A
    rule that fails is not stored, so it fails again on every use.

    Each call resumes from the longest prefix of its context already
    consumed, so the state argument is accepted for protocol uniformity but
    carries no extra information.  The memo of consumed prefixes is
    unbounded: it keeps the belief after every distinct prefix the
    predictor has seen."""

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
        self._rewritable = len({p.lhs[-1] for p in g.productions})
        self._view = _compiled(g)
        self._weights = [Fraction(w) for w in wg.weights]
        self._rules: dict[tuple[str, tuple[str, ...]], _Rule] = {}
        belief, den = self._expand({((), g.start.name): 1}, 1, ())
        # memo of consumed contexts; grows with the distinct contexts seen
        self._cache: dict[tuple[str, ...], tuple[_Belief, int, tuple[str, ...]]]
        self._cache = {(): (belief, den, ())}
        self.initial_state = self._encode(belief, den, ())

    # -- belief bookkeeping

    def _rule(self, nt: str, recent: tuple[str, ...]) -> _Rule:
        """The productions that rewrite ``nt`` after ``recent``, as integer weights."""
        rule = self._rules.get((nt, recent))
        if rule is not None:
            return rule
        view = self._view
        form = view.encode((*map(terminal, recent), nonterminal(nt)))
        # In production order: an index appears once, as the form has one nonterminal.
        candidates = sorted([(index, after) for _, index, after in _rewrites(form, view)])
        if not candidates:
            raise DeadEndError(f"no production rewrites {nt} after {recent}")
        weights = [self._weights[index] for index, _ in candidates]
        if not any(weights):
            raise ZeroMassError(f"weights for {nt} sum to zero after {recent}")
        scale = math.lcm(*[w.denominator for w in weights])
        children: dict[_Status, int] = {}
        for (_, after), w in zip(candidates, weights):
            body, last = view.decode(after[len(recent):]), None
            if body[-1].is_nonterminal:
                body, last = body[:-1], body[-1].name
            if any(s.is_nonterminal for s in body):
                raise NotLeftLinearizableError(
                    "a reachable form places a nonterminal left of a terminal"
                )
            child: _Status = (tuple([s.name for s in body]), last)
            children[child] = children.get(child, 0) + w.numerator * (scale // w.denominator)
        total = sum(children.values())
        g = math.gcd(total, *children.values())
        rule = tuple((child, w // g) for child, w in children.items()), total // g
        self._rules[(nt, recent)] = rule
        return rule

    def _expand(
        self, belief: _Belief, den: int, recent: tuple[str, ...]
    ) -> tuple[_Belief, int]:
        """Drain every (empty buffer, pending nonterminal) entry; reduce the result.

        A status pending after round r ends a chain of r unit rewrites, each
        of a nonterminal that ends some left side.  So after one round more
        than there are such nonterminals some nonterminal repeats on every
        such chain, and the mass cycles forever; a failing rule on a longer
        chain also ends a shorter one, so it has raised by then.
        """
        for _ in range(self._rewritable + 1):
            pending = {
                s: self._rule(s[1], recent) for s in belief if not s[0] and s[1] is not None
            }
            if not pending:
                g = math.gcd(den, *belief.values())
                return {s: mass // g for s, mass in belief.items()}, den // g
            scale = math.lcm(*(total for _, total in pending.values()))
            grown: _Belief = {}
            for status, mass in belief.items():
                rule = pending.get(status)
                if rule is None:
                    grown[status] = grown.get(status, 0) + mass * scale
                    continue
                children, total = rule
                mass *= scale // total
                for child, weight in children:
                    grown[child] = grown.get(child, 0) + mass * weight
            belief, den = grown, den * scale
        raise ValueError("unit-production cycle: belief expansion did not settle")

    def _consume(
        self, belief: _Belief, recent: tuple[str, ...], name: str
    ) -> tuple[_Belief, int, tuple[str, ...]]:
        """The posterior after one more token: the kept numerators over their sum."""
        kept: _Belief = {}
        for (buffer, nt), mass in belief.items():
            if buffer and buffer[0] == name:
                child: _Status = (buffer[1:], nt)
                kept[child] = kept.get(child, 0) + mass
        den = sum(kept.values())
        if den == 0:
            raise ImpossibleContextError(f"the grammar cannot produce token {name!r} here")
        if self._context_need:
            recent = (recent + (name,))[-self._context_need:]
        return *self._expand(kept, den, recent), recent

    def _encode(self, belief: _Belief, den: int, recent: tuple[str, ...]) -> PredictorState:
        statuses = []
        for buf, nt in sorted(belief, key=lambda s: (s[0], s[1] or "")):
            mass = belief[(buf, nt)]
            g = math.gcd(mass, den)
            statuses.append((buf, nt, (mass // g, den // g)))
        return PredictorState(self.family, (recent, tuple(statuses)))

    def _belief_for(self, names: tuple[str, ...]) -> tuple[_Belief, int, tuple[str, ...]]:
        """Posterior after the whole context, one new token at a time."""
        i = len(names)
        while names[:i] not in self._cache:
            i -= 1
        belief, den, recent = self._cache[names[:i]]
        for j in range(i, len(names)):
            belief, den, recent = self._consume(belief, recent, names[j])
            self._cache[names[: j + 1]] = (belief, den, recent)
        return belief, den, recent

    def next_distribution(
        self, state: PredictorState, context: SymbolString
    ) -> tuple[TokenDistribution, PredictorState]:
        for s in context:
            if s not in self._terminals:
                raise UnknownTokenError(f"token outside the grammar's terminals: {s!r}")
        belief, den, recent = self._belief_for(context.names())

        per_token = {s.name: 0 for s in self.vocabulary}
        end_mass = 0
        for (buffer, nt), mass in belief.items():
            if buffer:
                per_token[buffer[0]] += mass
            elif nt is None:
                end_mass += mass
        entries: list[tuple[Token, float]] = [
            (s, per_token[s.name] / den) for s in self.vocabulary
        ]
        entries.append((END, end_mass / den))
        return TokenDistribution(tuple(entries)), self._encode(belief, den, recent)


def grammar_predictor(wg: WeightedGrammar) -> GrammarPredictor:
    """Wrap a weighted left context-sensitive grammar as a predictor."""
    return GrammarPredictor(wg)


# ---------------------------------------------------------------------------
# k-gram predictor


class NgramPredictor:
    family = "ngram"
    finite_state = True

    def __init__(
        self,
        k: int,
        vocabulary: tuple[Symbol, ...],
        table: dict[tuple[str, ...], TokenDistribution],
    ):
        self.k = k
        self.vocabulary = vocabulary
        self._vocabulary = {s for s in vocabulary if s.is_terminal}
        self._table = table
        uniform = 1.0 / (len(vocabulary) + 1)
        self._fallback = TokenDistribution(
            tuple([(s, uniform) for s in vocabulary] + [(END, uniform)])
        )
        self.initial_state = PredictorState(self.family, ())

    def next_distribution(
        self, state: PredictorState, context: SymbolString
    ) -> tuple[TokenDistribution, PredictorState]:
        for s in context:
            if s not in self._vocabulary:
                raise UnknownTokenError(f"token outside the vocabulary: {s!r}")
        names = context.names()
        suffix = names[max(0, len(names) - self.k):] if self.k else ()
        return self._table.get(suffix, self._fallback), PredictorState(self.family, suffix)


def ngram_train(
    corpus: Sequence[Sequence[str]],
    k: int,
    vocab: Sequence[str] | None = None,
) -> NgramPredictor:
    """Train a k-gram predictor on whitespace-tokenized lines.

    Counts are raw maximum likelihood over (last-k-tokens -> next) pairs,
    with END appended to every line.  Unseen contexts fall back to the
    uniform distribution over vocabulary plus END.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    lines = [list(line) for line in corpus]
    if not lines:
        raise EmptyCorpusError("corpus has no lines")
    if vocab is None:
        vocab = sorted({tok for line in lines for tok in line})
    names = list(vocab)
    known = set(names)
    for line in lines:
        for tok in line:
            if tok not in known:
                raise UnknownTokenError(f"corpus token outside the vocabulary: {tok!r}")

    counts: dict[tuple[str, ...], dict[str | None, int]] = {}
    for line in lines:
        for i in range(len(line) + 1):
            ctx = tuple(line[max(0, i - k):i]) if k else ()
            nxt = line[i] if i < len(line) else None  # None stands for END
            bucket = counts.setdefault(ctx, {})
            bucket[nxt] = bucket.get(nxt, 0) + 1

    vocabulary = tuple(terminal(n) for n in names)
    table: dict[tuple[str, ...], TokenDistribution] = {}
    for ctx, bucket in counts.items():
        total = sum(bucket.values())
        entries: list[tuple[Token, float]] = [
            (s, bucket.get(s.name, 0) / total) for s in vocabulary
        ]
        entries.append((END, bucket.get(None, 0) / total))
        table[ctx] = TokenDistribution(tuple(entries))
    return NgramPredictor(k, vocabulary, table)


# ---------------------------------------------------------------------------
# Toy attention predictor

_MAX_POSITIONS = 64


class ToyAttentionPredictor:
    family = "toy_attention"
    finite_state = False

    def __init__(self, seed: int, embed_dim: int, vocabulary: tuple[Symbol, ...]):
        if embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        self.seed = seed
        self.embed_dim = embed_dim
        self.vocabulary = vocabulary
        self._index = {s: i for i, s in enumerate(vocabulary) if s.is_terminal}
        n, d = len(vocabulary), embed_dim
        rng = np.random.default_rng(seed)
        self.embeddings = rng.uniform(-0.5, 0.5, (n, d))
        self.bos = rng.uniform(-0.5, 0.5, d)
        self.w_query = rng.uniform(-0.5, 0.5, (d, d))
        self.w_key = rng.uniform(-0.5, 0.5, (d, d))
        self.w_value = rng.uniform(-0.5, 0.5, (d, d))
        self.w_out = rng.uniform(-0.5, 0.5, (d, n + 1))
        positions = np.arange(_MAX_POSITIONS)[:, None]
        j = np.arange(d)[None, :]
        angles = positions / np.power(10000.0, (j - (j % 2)) / d)
        self.positional = np.where(j % 2 == 0, np.sin(angles), np.cos(angles))
        self.initial_state = PredictorState(self.family, ())

    def next_distribution(
        self, state: PredictorState, context: SymbolString
    ) -> tuple[TokenDistribution, PredictorState]:
        idx = []
        for i, s in enumerate(context, start=1):
            j = self._index.get(s)
            if j is None:
                raise UnknownTokenError(f"token outside the vocabulary: {s!r}")
            if i >= _MAX_POSITIONS:
                raise ValueError(f"context exceeds {_MAX_POSITIONS - 1} tokens")
            idx.append(j)
        x = np.empty((len(idx) + 1, self.embed_dim))
        x[0] = self.bos + self.positional[0]
        x[1:] = self.embeddings[idx] + self.positional[1 : len(idx) + 1]
        q, k, v = x[-1] @ self.w_query, x @ self.w_key, x @ self.w_value
        scores = (k @ q) / math.sqrt(self.embed_dim)
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        logits = (weights @ v) @ self.w_out
        exps = np.exp(logits - logits.max())
        probs = (exps / exps.sum()).tolist()
        entries = tuple(zip(self.vocabulary, probs)) + ((END, probs[-1]),)
        next_state = PredictorState(self.family, context.names())
        return TokenDistribution(entries), next_state


def toy_attention_predictor(
    seed: int, embed_dim: int = 8, vocab: Sequence[str] | None = None
) -> ToyAttentionPredictor:
    """Build the seeded single-layer attention predictor over ``vocab``."""
    if not vocab:
        raise ValueError("vocab must name at least one token")
    return ToyAttentionPredictor(seed, embed_dim, tuple(terminal(n) for n in vocab))


# ---------------------------------------------------------------------------
# External formats


def read_corpus(text: str) -> list[list[str]]:
    """One whitespace-tokenized sequence per line; blank lines are empty sequences."""
    return [line.split() for line in text.splitlines()]


def read_vocab(text: str) -> tuple[str, ...]:
    """One symbol per non-blank line; order fixes the vocabulary index."""
    return tuple(line.strip() for line in text.splitlines() if line.strip())
