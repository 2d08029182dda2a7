"""Autoregressive next-token generation over a pluggable predictor.

Generation alternates two substeps.  The prediction substep
(:func:`step_ntp`) hands the current context to the predictor, obtaining a
distribution over the vocabulary plus the distinguished ``END`` pseudo-token
and the predictor's successor state; the policy then fixes one pending
token.  The context update substep (:func:`step_cwu`) appends the pending
token to the context and advances the step counter.  A run terminates when
``END`` is drawn or when ``max_t`` steps have been taken, and every substep
is captured in a :class:`GenerationRecord`.

``END`` is not a vocabulary symbol; it marks completion and never enters
the context.  Under the greedy policy, probability ties break toward the
smallest vocabulary index, with ``END`` ordered after every real token.
The sampling policy consumes one MT19937 draw (``random.Random(seed)``) per
prediction substep and selects by inverse CDF in that same order, by the
rule that also draws each step of :func:`lcsg.stochastic.sample_derivation`.

The context window is unbounded by default.  A bounded sliding window may
be requested; records whose predictor ever saw a truncated context are
marked non-conforming, because truncation breaks the guarantee that each
context extends the previous one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol, Union

from .stochastic import _draw
from .symbols import Symbol, SymbolString


class UnknownTokenError(ValueError):
    """The context contains a token outside the predictor's vocabulary."""


class EndTokenError(ValueError):
    """A context update was attempted with the END pseudo-token pending."""


class EndOfSequence:
    """The distinguished END pseudo-token.  A singleton, outside any vocabulary."""

    _instance: "EndOfSequence | None" = None

    def __new__(cls) -> "EndOfSequence":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<END>"


END = EndOfSequence()

Token = Union[Symbol, EndOfSequence]


@dataclass(frozen=True)
class PredictorState:
    """An opaque predictor state: a family tag plus a canonical encoding.

    Encodings must be hashable, deterministic for a given predictor and
    context history, and built from literal values (tuples, strings,
    numbers, ``None``) so they serialize losslessly.  Two states are equal
    iff family and encoding are equal.
    """

    family: str
    encoding: object


@dataclass(frozen=True)
class TokenDistribution:
    """Probabilities over the vocabulary plus END, in vocabulary-index order."""

    entries: tuple[tuple[Token, float], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[Token] = set()
        total = 0.0
        for token, p in self.entries:
            if token in seen:
                raise ValueError(f"duplicate token: {token!r}")
            seen.add(token)
            if not (math.isfinite(p) and p >= 0.0):
                raise ValueError(f"probability for {token!r} must be finite and >= 0: {p}")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def probability(self, token: Token) -> float:
        for t, p in self.entries:
            if t == token:
                return p
        return 0.0

    def argmax(self) -> Token:
        best_token, best_p = self.entries[0]
        for token, p in self.entries[1:]:
            if p > best_p:
                best_token, best_p = token, p
        return best_token

    def sample(self, u: float) -> Token:
        return _draw(self.entries, u)


@dataclass(frozen=True)
class Configuration:
    """A full configuration: context window content, predictor state, step count."""

    context: SymbolString
    state: PredictorState
    t: int


@dataclass(frozen=True)
class IntermediateConfiguration:
    """Between substeps: the predicted token is pending, the context unchanged."""

    context: SymbolString
    pending_token: Token
    next_state: PredictorState
    t: int


@dataclass(frozen=True)
class GenerationStep:
    """One emitted token with the predictor states on either side."""

    state_before: PredictorState
    token: Symbol
    state_after: PredictorState


@dataclass(frozen=True)
class GenerationRecord:
    """Everything observable about one generation run."""

    prompt: SymbolString
    steps: tuple[GenerationStep, ...]
    final: SymbolString
    termination: str  # "END_sampled" | "max_T_reached"
    seed: int
    policy: str  # "greedy" | "sample"
    initial_state: PredictorState
    conforming: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.steps, tuple):
            object.__setattr__(self, "steps", tuple(self.steps))
        rebuilt = self.prompt + tuple(s.token for s in self.steps)
        if rebuilt != self.final:
            raise ValueError("final does not equal prompt plus emitted tokens")
        if self.termination not in ("END_sampled", "max_T_reached"):
            raise ValueError(f"unknown termination: {self.termination}")


class Predictor(Protocol):
    """The pluggable next-token predictor interface.

    ``vocabulary`` fixes token index order.  ``next_distribution`` must be a
    pure function of (state, context): the returned state is the state after
    the predictor has consumed ``context``, and the distribution predicts
    the token that would extend ``context``.
    """

    family: str
    vocabulary: tuple[Symbol, ...]
    initial_state: PredictorState
    finite_state: bool

    def next_distribution(
        self, state: PredictorState, context: SymbolString
    ) -> tuple[TokenDistribution, PredictorState]: ...


def step_ntp(
    c: Configuration,
    predictor: Predictor,
    policy: str,
    rng: random.Random | None = None,
) -> IntermediateConfiguration:
    """The prediction substep: fix a pending token by the given policy."""
    distribution, next_state = predictor.next_distribution(c.state, c.context)
    if policy == "greedy":
        token = distribution.argmax()
    elif policy == "sample":
        if rng is None:
            raise ValueError("the sample policy needs a seeded generator")
        token = distribution.sample(rng.random())
    else:
        raise ValueError(f"unknown policy: {policy}")
    return IntermediateConfiguration(c.context, token, next_state, c.t)


def step_cwu(ic: IntermediateConfiguration) -> Configuration:
    """The context update substep: append the pending token."""
    if isinstance(ic.pending_token, EndOfSequence):
        raise EndTokenError("END cannot be appended to the context")
    return Configuration(ic.context + (ic.pending_token,), ic.next_state, ic.t + 1)


def generate(
    predictor: Predictor,
    prompt: SymbolString,
    policy: str,
    seed: int,
    max_t: int,
    window: int | None = None,
) -> GenerationRecord:
    """Run the generation loop from ``prompt`` for at most ``max_t`` tokens."""
    if max_t < 0:
        raise ValueError("max_t must be >= 0")
    if window is not None and window < 0:
        raise ValueError("window must be >= 0")
    if policy not in ("greedy", "sample"):
        raise ValueError(f"unknown policy: {policy}")
    rng = random.Random(seed) if policy == "sample" else None

    c = Configuration(prompt, predictor.initial_state, 0)
    steps: list[GenerationStep] = []
    truncated_seen = False
    termination = "max_T_reached"
    while c.t < max_t:
        seen = c
        if window is not None and len(c.context) > window:
            truncated_seen = True
            seen = Configuration(c.context[len(c.context) - window:], c.state, c.t)
        ic = step_ntp(seen, predictor, policy, rng)
        if isinstance(ic.pending_token, EndOfSequence):
            termination = "END_sampled"
            break
        steps.append(GenerationStep(c.state, ic.pending_token, ic.next_state))
        # the window narrowed only what the predictor saw; append to the full context
        c = step_cwu(IntermediateConfiguration(c.context, ic.pending_token, ic.next_state, c.t))

    return GenerationRecord(
        prompt=prompt,
        steps=tuple(steps),
        final=c.context,
        termination=termination,
        seed=seed,
        policy=policy,
        initial_state=predictor.initial_state,
        conforming=not truncated_seen,
    )
