"""Exact probabilities in rational arithmetic, with no rounding anywhere.

The reference that the float probabilities of :mod:`lcsg.stochastic` are
measured against.  It reads a cached search record as the library's sweep
does, the forms in breadth-first order, decoded by
``derivation_oracle.record_forms``, and the rewrites of each as (production
index, child id or ``None``), and turns every weight into a ``Fraction``;
``Fraction(float)`` is exact.  The non-terminal forms of one minimal yield
make a layer, swept lowest first; the yield is computed here from the
nullable set of ``derivation_oracle._search_profile``, the oracle's own
closure, not read from the record or the library's profile.  Each layer
is split into the strongly connected components of its positive
same-layer rewrites (Kosaraju's two passes), taken sources first, and
each component that receives mass solves ``(I - Q^T) x = inflow`` for its
visits by Gauss-Jordan elimination.

A component's block of ``I - Q^T`` is singular exactly when the component
holds a cycle and every member's probabilities, summed exactly over its
rewrites into the component, come to 1.  Such a component traps its mass:
it is decided from those exact sums, before any solve, and what enters it
stays there and counts as residual.  A solve can cost the cube of its
component's size in ever longer fractions, so a caller may cap the size of
the components solved; a larger one raises :class:`ComponentTooLargeError`.
"""

from __future__ import annotations

from fractions import Fraction

from derivation_oracle import _search_profile, record_forms
from lcsg.derivation import (
    DEFAULT_FUEL,
    FuelExhaustedError,
    _bounded_reachability,
    enumerate_language,
)
from lcsg.stochastic import WeightedGrammar
from lcsg.symbols import SymbolString

# How far a float probability of the library may lie from the exact value,
# relative to it.  The worst measured was 2.1e-15, on a layer of 5460 forms
# in cyclic components of up to 64; 7.6e-16 over 1480 drawn grammars.
RELATIVE = 1e-13


class ComponentTooLargeError(RuntimeError):
    """A component that receives mass holds more forms than the cap allows."""


def within_relative(p: float, exact: Fraction) -> bool:
    """``p`` lies within ``RELATIVE`` of ``exact``, relative to it."""
    return abs(Fraction(p) - exact) <= RELATIVE * exact


def absorption(
    wg: WeightedGrammar, bound: int, fuel: int = DEFAULT_FUEL, most: int | None = None
) -> dict[SymbolString, Fraction]:
    """The exact absorbed mass of every terminal string of length at most
    ``bound``.  A component that traps its mass keeps what enters it, and
    one of more than ``most`` forms that receives mass is not solved."""
    forms, edges, layers, components = _graph(wg, bound, fuel)
    absorbed = {i: Fraction(0) for i in range(len(forms)) if i not in edges}
    mass = {i: Fraction(0) for i in edges}
    mass[0] = Fraction(1)
    for level in sorted(layers):
        for component in components[level]:
            if not any(mass[f] for f in component) or _traps(component, edges):
                continue
            if most is not None and len(component) > most:
                raise ComponentTooLargeError(f"a component of {len(component)} forms receives mass")
            members = {f: k for k, f in enumerate(component)}
            # Row k of I - Q^T, sparse, with the inflow of member k under column n.
            n = len(component)
            rows = [{k: Fraction(1), n: mass[f]} for k, f in enumerate(component)]
            for f in component:
                for child, p in edges[f]:
                    if child in members:
                        row = rows[members[child]]
                        row[members[f]] = row.get(members[f], Fraction(0)) - p
            visits = _gauss_jordan(rows)
            for f, x in zip(component, visits):
                for child, p in edges[f]:
                    if child in members:
                        continue
                    if child in absorbed:
                        absorbed[child] += x * p
                    else:
                        mass[child] += x * p
    return {forms[i]: p for i, p in absorbed.items()}


def _graph(wg: WeightedGrammar, bound: int, fuel: int):
    """The search's forms, each non-terminal form's rewrites as (child id,
    exact probability), the non-terminal ids of each minimal yield, and
    each layer's components, sources first."""
    reach = _bounded_reachability(wg.grammar, bound, fuel)
    if not reach.completed:
        raise FuelExhaustedError(f"fuel {fuel} exhausted computing probabilities to length {bound}")
    forms = record_forms(wg.grammar, reach)
    nullable = _search_profile(wg.grammar)
    least = [sum(s not in nullable for s in form) for form in forms]
    weights = [Fraction(w) for w in wg.weights]
    edges: dict[int, list[tuple[int, Fraction]]] = {}  # non-terminal forms only
    for i, rewrites in enumerate(reach.rewrites):
        if forms[i].is_all_terminal():
            continue
        total = sum((weights[index] for index, _ in rewrites), Fraction(0))
        edges[i] = [  # a child of None leaves the bound, and its mass with it
            (child, weights[index] / total)
            for index, child in rewrites
            if total and child is not None
        ]

    layers: dict[int, list[int]] = {}
    for i in edges:
        layers.setdefault(least[i], []).append(i)
    components = {}
    for level, layer in layers.items():
        same = {i: [c for c, p in edges[i] if c in edges and least[c] == level and p > 0] for i in layer}
        components[level] = _components_sources_first(layer, same)
    return forms, edges, layers, components


def _traps(component: list[int], edges: dict[int, list[tuple[int, Fraction]]]) -> bool:
    """Every member's rewrites keep all of its mass in the component, which
    a lone form without a loop to itself cannot do."""
    members = set(component)
    return all(sum((p for c, p in edges[f] if c in members), Fraction(0)) == 1 for f in component)


def _components_sources_first(layer: list[int], same: dict[int, list[int]]) -> list[list[int]]:
    """Kosaraju: order by finish time on the edges, then collect on the
    reversed edges in decreasing finish time, which yields sources first."""
    finished: list[int] = []
    seen: set[int] = set()
    for root in layer:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(same[root]))]
        while stack:
            v, children = stack[-1]
            for w in children:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(same[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    reverse: dict[int, list[int]] = {i: [] for i in layer}
    for i in layer:
        for c in same[i]:
            reverse[c].append(i)
    assigned: set[int] = set()
    components = []
    for root in reversed(finished):
        if root in assigned:
            continue
        assigned.add(root)
        component, todo = [], [root]
        while todo:
            v = todo.pop()
            component.append(v)
            for w in reverse[v]:
                if w not in assigned:
                    assigned.add(w)
                    todo.append(w)
        components.append(component)
    return components


def _gauss_jordan(rows: list[dict[int, Fraction]]) -> list[Fraction]:
    """Solve a square system of sparse rows, each holding its right side
    under column ``len(rows)``, exactly."""
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r].get(col)), None)
        assert pivot is not None, "a component that traps nothing is never singular"
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = {j: x / head for j, x in rows[col].items()}
        for r in range(n):
            factor = rows[r].get(col)
            if r != col and factor:
                row = rows[r]
                for j, y in rows[col].items():
                    x = row.get(j, Fraction(0)) - factor * y
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
    return [row.get(n, Fraction(0)) for row in rows]


def exact_distribution(
    wg: WeightedGrammar, bound: int, fuel: int = DEFAULT_FUEL, most: int | None = None
) -> tuple[dict[SymbolString, Fraction], Fraction]:
    """The exact probabilities of the support up to ``bound``, and the residual.

    It sweeps at the longest string of the support, while the library reads
    support and probabilities from one sweep at ``bound``.  So the library
    is compared with the other method, a sweep that holds no form whose
    minimal yield exceeds that string.
    """
    support = _support(wg, bound, fuel)
    absorbed = absorption(wg, max((len(w) for w in support), default=0), fuel, most)
    probabilities = {w: absorbed.get(w, Fraction(0)) for w in support}
    return probabilities, 1 - sum(probabilities.values(), Fraction(0))


def _support(wg: WeightedGrammar, bound: int, fuel: int) -> list[SymbolString]:
    """The strings up to ``bound``, shortest first, as the library lists them."""
    return sorted(enumerate_language(wg.grammar, bound, fuel), key=lambda s: (len(s), s.names()))

