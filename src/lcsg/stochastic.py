"""Weighted grammars: step distributions, seeded sampling, exact probabilities.

A ``WeightedGrammar`` attaches one nonnegative weight to each production.
At any sentential form the applicable steps are renormalized into a proper
distribution, so sampling walks the derivation space step by step.

Sampling is reproducible by construction: the generator is ``random.Random``
(MT19937), seeded explicitly, consuming exactly one uniform draw per
derivation step, and the step is chosen by inverse CDF over the successor
order of :func:`lcsg.derivation.successors`, though the sampler builds a
:class:`DerivationStep` only for the rewrite it draws.  Identical seeds
therefore yield identical traces on every platform.

``string_probability`` computes the exact total probability of a terminal
string: the sum over all complete derivations of the product of step
probabilities.  The computation sweeps reachable forms in increasing length
order; probability mass that cycles among same-length forms is resolved by
one dense float64 solve (``numpy.linalg.solve``, that is LAPACK) over each
same-length layer.  The solve is direct, not iterative, but it is floating
point: results are exact only up to rounding.  Its memory grows with the
square of the layer size and its time with the cube, so a layer of a few
thousand forms takes seconds and hundreds of MB.  ``exact_distribution`` reads every
string of its support from one such sweep.  The sweep explores nothing
itself: it reads its forms, and the rewrites of each, from the grammar's
cached bounded search, the one that also serves ``derives_bounded`` and
``enumerate_language``, and so shares that search's fuel and its 16-entry
bound per grammar object.  The search also decides which rewrites leave
the bound.  ``_renormalized`` is the one home of renormalization, for the
sampler's steps and the sweep's edges alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .derivation import (
    DEFAULT_FUEL,
    DerivationStep,
    DerivationTrace,
    FuelExhaustedError,
    _bounded_reachability,
    _compiled,
    _rewrites,
    enumerate_language,
)
from .grammar import Grammar
from .symbols import SymbolString


class DeadEndError(RuntimeError):
    """A non-terminal form with no applicable step."""


class ZeroMassError(ValueError):
    """Applicable steps exist but their weights sum to zero."""


class BoundMismatchError(ValueError):
    """Two distributions with different bounds cannot be compared."""


@dataclass(frozen=True)
class WeightedGrammar:
    """A grammar plus one weight per production, aligned by index."""

    grammar: Grammar
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != len(self.grammar.productions):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.grammar.productions)} productions"
            )
        for w in self.weights:
            if not np.isfinite(w) or w < 0.0:
                raise ValueError(f"weights must be finite and >= 0: {w}")
        productions = self.grammar.productions
        rewritten = {s for p, w in zip(productions, self.weights) if w > 0.0 for s in p.lhs}
        for nt in [s for p in productions for s in p.lhs if s.is_nonterminal]:
            if nt not in rewritten:
                raise ValueError(f"no positive weight rewrites {nt.name}")

    @classmethod
    def from_grammar(cls, g: Grammar) -> "WeightedGrammar":
        """Adopt per-production weights from the grammar, defaulting to 1.0."""
        return cls(g, tuple(p.weight if p.weight is not None else 1.0 for p in g.productions))


@dataclass(frozen=True)
class StringDistribution:
    """Probabilities over terminal strings up to a length bound.

    ``residual`` tracks mass assigned to nothing in the support: truncated
    samples, or derivations that escape the bound.
    """

    probabilities: dict  # SymbolString -> float
    bound: int
    residual: float = 0.0

    def __post_init__(self) -> None:
        total = 0.0
        for w, p in self.probabilities.items():
            if len(w) > self.bound:
                raise ValueError(f"string longer than bound {self.bound}: {w}")
            if not 0.0 <= p <= 1.0 + 1e-9:
                raise ValueError(f"probability out of range for {w}: {p}")
            total += p
        if not 0.0 <= self.residual <= 1.0 + 1e-9:
            raise ValueError(f"residual out of range: {self.residual}")
        if total + self.residual > 1.0 + 1e-9:
            raise ValueError(f"total mass exceeds 1: {total + self.residual}")


@dataclass(frozen=True)
class SampledDerivation:
    """A sampled trace; ``truncated`` marks a run stopped at the step limit."""

    trace: DerivationTrace
    truncated: bool


def _renormalized(items: list, raw: list[float]) -> list[tuple]:
    """Each item with its raw weight over their sum; ``[]`` if that sum is zero."""
    total = sum(raw)
    if total <= 0.0:
        return []
    return [(item, w / total) for item, w in zip(items, raw)]


def _step_distribution(wg: WeightedGrammar, form: SymbolString) -> list[tuple[tuple, float]]:
    """``form``'s rewrites (index, position, after) renormalized, in successor order."""
    rewrites = _rewrites(form, _compiled(wg.grammar).by_head)
    if not rewrites:
        if form.is_all_terminal():
            raise ValueError(f"form is all-terminal, no steps apply: {form}")
        raise DeadEndError(f"no applicable step at {form}")
    distribution = _renormalized(rewrites, [wg.weights[r[0]] for r in rewrites])
    if not distribution:
        raise ZeroMassError(f"applicable weights sum to zero at {form}")
    return distribution


def normalize_weights(
    wg: WeightedGrammar, form: SymbolString
) -> list[tuple[DerivationStep, float]]:
    """The renormalized step distribution at ``form``, in successor order."""
    return [(DerivationStep(form, *rewrite), p) for rewrite, p in _step_distribution(wg, form)]


def sample_derivation(
    wg: WeightedGrammar, seed: int, max_steps: int = 1000
) -> SampledDerivation:
    """Sample one derivation from the start symbol, seeded and deterministic."""
    rng = random.Random(seed)
    g = wg.grammar
    form = SymbolString((g.start,))
    steps: list[DerivationStep] = []
    while not form.is_all_terminal() and len(steps) < max_steps:
        distribution = _step_distribution(wg, form)
        u = rng.random()
        cumulative = 0.0
        chosen = distribution[-1][0]
        for rewrite, p in distribution:
            cumulative += p
            if u < cumulative:
                chosen = rewrite
                break
        steps.append(DerivationStep(form, *chosen))
        form = steps[-1].after
    return SampledDerivation(DerivationTrace(g, tuple(steps)), not form.is_all_terminal())


def _absorption(wg: WeightedGrammar, bound: int, fuel: int) -> dict[SymbolString, float]:
    """The absorbed mass of every terminal string of length at most ``bound``.

    The sweep reads its forms and their rewrites from the grammar's cached
    bounded search, :func:`lcsg.derivation._bounded_reachability`, and
    expands no form itself.  The search keeps the forms whose minimal yield
    fits ``bound``, and records a rewrite to any other form with the child
    ``None``: its weight counts in the renormalization at its form, as in
    ``normalize_weights``, and its mass escapes the bound.  One sweep serves
    every length up to ``bound`` because, for all three accepted grammar
    shapes, the minimal yield never decreases along a derivation.  Every
    form on a derivation of a shorter ``w``, and every ancestor of such a
    form, is therefore kept at the larger bound too, while the forms added
    by the larger bound cannot derive ``w``.  The linear system that
    determines ``w``'s mass is unchanged.
    """
    g = wg.grammar
    reach = _bounded_reachability(g, bound, fuel)
    if not reach.completed:
        raise FuelExhaustedError(f"fuel {fuel} exhausted computing probabilities to length {bound}")
    # The transient (non-terminal) forms, their outgoing distributions and
    # their layers by length.  A form with no rewrite, or zero mass, gets no edges.
    edges: dict[SymbolString, list[tuple[SymbolString, float]]] = {}
    layers: dict[int, list[SymbolString]] = {}
    for form, rewrites in zip(reach.parents, reach.rewrites):
        if form.is_all_terminal():
            continue
        out: list[tuple[SymbolString, float]] = []
        raw = [wg.weights[index] for index, _ in rewrites]
        for (_, child), p in _renormalized(rewrites, raw):
            if child is None:
                continue  # the mass escapes the bound and is dropped
            if len(child) < len(form) and not child.is_all_terminal():
                raise ValueError(
                    f"erasure into non-terminal form {child} is unsupported "
                    "for exact probabilities"
                )
            out.append((child, p))
        edges[form] = out
        layers.setdefault(len(form), []).append(form)

    absorbed: dict[SymbolString, float] = {}
    mass_in: dict[SymbolString, float] = {SymbolString((g.start,)): 1.0}
    for length in sorted(layers):
        layer = sorted(layers[length], key=lambda f: f.names())
        index = {f: i for i, f in enumerate(layer)}
        m0 = np.array([mass_in.get(f, 0.0) for f in layer])
        if not m0.any():
            continue
        same_layer = [
            (index[f], index[child], p)
            for f in layer
            for child, p in edges[f]
            if child in index
        ]
        if same_layer:
            q = np.zeros((len(layer), len(layer)))
            for i, j, p in same_layer:
                q[i, j] += p
            try:
                x = np.linalg.solve(np.eye(len(layer)) - q.T, m0)
            except np.linalg.LinAlgError:
                raise ValueError(
                    "probability mass trapped in a same-length cycle"
                ) from None
        else:
            x = m0
        for f in layer:
            visits = float(x[index[f]])
            if visits == 0.0:
                continue
            for child, p in edges[f]:
                if child not in edges:
                    absorbed[child] = absorbed.get(child, 0.0) + visits * p
                elif len(child) > length:
                    mass_in[child] = mass_in.get(child, 0.0) + visits * p
    return absorbed


def string_probability(
    wg: WeightedGrammar, w: SymbolString, fuel: int = DEFAULT_FUEL
) -> float:
    """Exact probability of deriving the terminal string ``w``."""
    if not w.is_all_terminal():
        raise ValueError(f"string must contain only terminals: {w}")
    return _absorption(wg, len(w), fuel).get(w, 0.0)


def exact_distribution(
    wg: WeightedGrammar, bound: int, fuel: int = DEFAULT_FUEL
) -> StringDistribution:
    """The exact distribution over derivable strings up to ``bound``."""
    support = sorted(enumerate_language(wg.grammar, bound, fuel), key=lambda s: (len(s), s.names()))
    # One sweep at the longest derivable length, the largest one a
    # per-string computation would run, serves every string in the support.
    absorbed = _absorption(wg, max((len(w) for w in support), default=0), fuel)
    probabilities = {w: absorbed.get(w, 0.0) for w in support}
    residual = max(0.0, 1.0 - sum(probabilities.values()))
    return StringDistribution(probabilities, bound, residual)


def total_variation(d1: StringDistribution, d2: StringDistribution) -> float:
    """Half the L1 distance, counting residual mass as disagreement."""
    if d1.bound != d2.bound:
        raise BoundMismatchError(f"bounds differ: {d1.bound} != {d2.bound}")
    # Summed in a fixed order: a float sum in set order would vary between runs.
    support = sorted({*d1.probabilities, *d2.probabilities}, key=lambda w: (len(w), w.names()))
    diff = sum(
        abs(d1.probabilities.get(w, 0.0) - d2.probabilities.get(w, 0.0)) for w in support
    )
    return 0.5 * (diff + abs(d1.residual - d2.residual))
