"""Per-string exact probabilities, as computed before the one-sweep refactor.

Kept verbatim as the reference that ``test_stochastic_differential.py``
compares :func:`lcsg.exact_distribution` and :func:`lcsg.string_probability`
against: every call here re-explores the bounded form space for one string.
Its support and its nullable set come from ``derivation_oracle``, so it
shares no search with the code it checks.
"""

from __future__ import annotations

import numpy as np

from derivation_oracle import _search_profile, enumerate_language
from lcsg.derivation import DEFAULT_FUEL, FuelExhaustedError
from lcsg.stochastic import (
    DeadEndError,
    StringDistribution,
    WeightedGrammar,
    ZeroMassError,
    normalize_weights,
)
from lcsg.symbols import SymbolString


def string_probability(
    wg: WeightedGrammar, w: SymbolString, fuel: int = DEFAULT_FUEL
) -> float:
    """Exact probability of deriving the terminal string ``w``."""
    if not w.is_all_terminal():
        raise ValueError(f"string must contain only terminals: {w}")
    g = wg.grammar
    nullable = _search_profile(g)
    bound = len(w)

    def min_yield(form: SymbolString) -> int:
        if not nullable:
            return len(form)
        return sum(1 for s in form if s not in nullable)

    initial = SymbolString((g.start,))
    # Discover transient (non-terminal) forms and their outgoing distributions.
    edges: dict[SymbolString, list[tuple[SymbolString, float]]] = {}
    absorbing: set[SymbolString] = set()
    frontier = [initial]
    expanded = 0
    while frontier:
        form = frontier.pop()
        if form in edges:
            continue
        if expanded >= fuel:
            raise FuelExhaustedError(f"fuel {fuel} exhausted computing probability of {w}")
        expanded += 1
        try:
            distribution = normalize_weights(wg, form)
        except (DeadEndError, ZeroMassError):
            edges[form] = []
            continue
        out: list[tuple[SymbolString, float]] = []
        for step, p in distribution:
            child = step.after
            if child.is_all_terminal():
                absorbing.add(child)
                out.append((child, p))
            elif min_yield(child) <= bound:
                if len(child) < len(form):
                    raise ValueError(
                        f"erasure into non-terminal form {child} is unsupported "
                        "for exact probabilities"
                    )
                out.append((child, p))
                frontier.append(child)
            # else: mass escapes the bound and is dropped.
        edges[form] = out

    absorbed: dict[SymbolString, float] = {}
    mass_in: dict[SymbolString, float] = {initial: 1.0}
    for length in sorted({len(f) for f in edges}):
        layer = sorted(
            (f for f in edges if len(f) == length),
            key=lambda f: f.names(),
        )
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
                if child in absorbing:
                    absorbed[child] = absorbed.get(child, 0.0) + visits * p
                elif len(child) > length:
                    mass_in[child] = mass_in.get(child, 0.0) + visits * p
    return absorbed.get(w, 0.0)


def exact_distribution(
    wg: WeightedGrammar, bound: int, fuel: int = DEFAULT_FUEL
) -> StringDistribution:
    """The exact distribution over derivable strings up to ``bound``."""
    probabilities = {
        w: string_probability(wg, w, fuel)
        for w in sorted(enumerate_language(wg.grammar, bound, fuel), key=lambda s: (len(s), s.names()))
    }
    residual = max(0.0, 1.0 - sum(probabilities.values()))
    return StringDistribution(probabilities, bound, residual)

