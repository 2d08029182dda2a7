"""Weighted grammars: step distributions, seeded sampling, exact probabilities.

A ``WeightedGrammar`` attaches one nonnegative weight to each production.
At any sentential form the applicable steps are renormalized into a proper
distribution, so sampling walks the derivation space step by step.

Sampling is reproducible by construction: the generator is ``random.Random``
(MT19937), seeded explicitly, consuming exactly one uniform draw per
derivation step, and the step is chosen by inverse CDF over the successor
order of :func:`lcsg.derivation.successors`, though the sampler walks coded
forms and builds its trace's steps once, back from the final form, with
``derivation._chain``.  Identical seeds therefore yield identical traces on
every platform.

``string_probability`` computes the exact total probability of a terminal
string: the sum over all complete derivations of the product of step
probabilities.  The computation sweeps the reachable forms once, over the
integer ids the search gives them: the rewrites between non-terminal forms
split them into strongly connected components (Tarjan 1972), visited
sources first.  A component whose mass can reach no kept string is
skipped: the mass that enters a cycle with no way out, or leaves the bound
from it, stays out of every string, as residual.  A form on no cycle
passes its inflow on directly; the mass that cycles within a component is
resolved by one dense float64 solve (``numpy.linalg.solve``, that is
LAPACK) over that component alone.  The solve is direct, not iterative,
but it is floating point: results are exact only up to rounding, measured
within 1e-13 of exact rational arithmetic in the tests.  Its memory grows
with the square of the largest component, not of the graph, and its time
with the cube of each component, so thousands of forms in small cycles are
cheap, and a graph without a cycle makes no LAPACK call.
``exact_distribution`` reads its support and every probability from one
search and one sweep at its bound.  The sweep explores nothing itself: it
reads its forms and the rewrites of each from the grammar's cached bounded
search, the one that also serves ``derives_bounded`` and
``enumerate_language``, so it shares that search's fuel and the search
cache whose rule the :mod:`lcsg.derivation` docstring states, and the
search decides which rewrites leave the bound.  Each cached search keeps
the last sweep over it with the weights it read, so the first
``string_probability`` per grammar object, weights and length pays for the
whole bounded language and later ones at that length are look-ups, as is
one at the bound's length after ``exact_distribution``.
``_renormalized`` is the one home of renormalization, for the sampler's
rewrites, ``normalize_weights``'s steps and the sweep's edges alike, and
``_draw`` the one home of the inverse-CDF draw, for the sampler's steps and
``TokenDistribution.sample``'s tokens alike.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .derivation import (
    DEFAULT_FUEL,
    DerivationStep,
    DerivationTrace,
    FuelExhaustedError,
    _bounded_reachability,
    _chain,
    _compiled,
    _Reachability,
    _rewrites,
    successors,
)
from .grammar import Grammar
from .symbols import SymbolString, shortlex


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
            if not math.isfinite(w) or w < 0.0:
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


def _refuse(form: SymbolString, rewrites: list) -> None:
    """Raise why ``form``, whose ``rewrites`` renormalize to nothing, has no step."""
    if rewrites:
        raise ZeroMassError(f"applicable weights sum to zero at {form}")
    if form.is_all_terminal():
        raise ValueError(f"form is all-terminal, no steps apply: {form}")
    raise DeadEndError(f"no applicable step at {form}")


def normalize_weights(
    wg: WeightedGrammar, form: SymbolString
) -> list[tuple[DerivationStep, float]]:
    """The renormalized step distribution at ``form``, in successor order."""
    steps = successors(form, wg.grammar)
    distribution = _renormalized(steps, [wg.weights[s.production_index] for s in steps])
    if not distribution:
        _refuse(form, steps)
    return distribution


def _draw(entries: list | tuple, u: float) -> object:
    """The item of the first ``(item, p)`` entry whose cumulative ``p`` exceeds ``u``.

    The inverse-CDF rule of every seeded draw: the sampler's step here and
    ``TokenDistribution.sample`` in :mod:`lcsg.autoregressive`.  When
    rounding leaves the total at or below ``u``, the last item is drawn.
    """
    cumulative = 0.0
    for item, p in entries:
        cumulative += p
        if u < cumulative:
            return item
    return entries[-1][0]


def sample_derivation(
    wg: WeightedGrammar, seed: int, max_steps: int = 1000
) -> SampledDerivation:
    """Sample one derivation from the start symbol, seeded and deterministic.

    A negative ``max_steps`` raises ``ValueError``.  The trace keeps every
    form, so time and memory are quadratic in the steps where forms grow.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    rng = random.Random(seed)
    g = wg.grammar
    view = _compiled(g)
    weights, nonterminals = wg.weights, view.nonterminals
    form = view.codes[g.start]
    steps: list[tuple[int, int, int] | None] = [None]  # by form, as the search keeps them
    while not nonterminals.isdisjoint(form) and len(steps) <= max_steps:
        rewrites = _rewrites(form, view)
        distribution = _renormalized(rewrites, [weights[r[1]] for r in rewrites])
        if not distribution:
            _refuse(SymbolString._of(view.decode(form)), rewrites)  # a walk holds no stranger
        position, index, form = _draw(distribution, rng.random())
        steps.append((len(steps) - 1, index, position))
    final = SymbolString._of(view.decode(form))
    trace = DerivationTrace._of(g, _chain(view.sides, steps, len(steps) - 1, final))
    return SampledDerivation(trace, not nonterminals.isdisjoint(form))


def _absorption(wg: WeightedGrammar, bound: int, fuel: int) -> dict[SymbolString, float]:
    """The absorbed mass of every terminal string of length at most ``bound``.

    The grammar's cached search at ``bound`` keeps the last sweep over it,
    with the weights it read, for reuse under equal weights only: two
    weightings never share a sweep.  Which fuels that search answers is the
    cache rule of the :mod:`lcsg.derivation` docstring.  Callers must not
    change the dict returned.  Mass in a component that
    reaches no kept string, a cycle with no way out among them, is absorbed
    by no string, like mass that leaves the bound.  A sweep that raises is
    not kept, so it raises again on the next call.
    """
    reach = _bounded_reachability(wg.grammar, bound, fuel)
    if reach.sweep is None or reach.sweep[0] != wg.weights:
        if not reach.completed:
            raise FuelExhaustedError(
                f"fuel {fuel} exhausted computing probabilities to length {bound}"
            )
        reach.sweep = (wg.weights, _sweep(wg, reach))
    return reach.sweep[1]


def _sweep(wg: WeightedGrammar, reach: _Reachability) -> dict[SymbolString, float]:
    """``_absorption``'s sweep over the completed search ``reach``, run afresh.

    The sweep reads its forms and their rewrites from ``reach`` and expands
    no form itself.  The search keeps the forms whose minimal yield fits its
    bound and records a rewrite to any other form with the child ``None``:
    its weight counts in the renormalization at its form, as in
    ``normalize_weights``, and its mass escapes the bound.  In all three
    accepted grammar shapes no rewrite into a non-terminal form lowers the
    minimal yield, so one sweep serves every length up to the bound: a
    larger bound keeps every form that derives a shorter ``w`` and its
    ancestors, adds only forms that cannot, and leaves the linear system
    that determines ``w``'s mass unchanged.

    Edges and mass live in lists indexed by the search's form ids.  The
    kept terminal strings, the sinks that absorb mass, are the ids in the
    search's ``reach.found``; the sweep tests no form itself.  The
    rewrites of positive probability between non-terminal forms split them
    into strongly connected components, visited once, sources first
    (:func:`_components`), so each component has its whole inflow when the
    sweep reaches it.  One rule decides what is skipped: a component is
    *live* when a rewrite of positive probability leads from it to a kept
    terminal string or to a live component.  The mass of any other
    component reaches no string, so the sweep skips it whole: a cycle with
    no way out and one above the longest string kept are both dead, and
    need no solve that could only raise.  A live form on no cycle passes
    its inflow on as its visits; a live component with a cycle gets one
    dense solve of its own, unless it receives no mass.  The solve's matrix
    is ``I - Q^T`` with each diagonal entry the form's outflow, its
    probabilities summed over every rewrite but a self-loop, not
    ``1 - q_kk``: a self-loop whose probability rounds to 1 would cancel
    that outflow to 0 and give negative mass.  A float-singular solve
    raises ``ValueError``.
    """
    escaped = len(reach.coded)  # the slot of ``mass`` that collects what leaves the bound
    terminal = [False] * escaped
    for i in reach.found.values():  # a completed search expanded each form
        terminal[i] = True
    # Each non-terminal form's rewrites as (child id, probability); a form
    # with no rewrite, or zero mass, gets none.  ``inner`` keeps the
    # positive ones to a non-terminal form.
    edges: list[list[tuple[int, float]]] = [[] for _ in range(escaped)]
    inner: list[list[int]] = [[] for _ in range(escaped)]
    for i, rewrites in enumerate(reach.rewrites):
        if terminal[i]:
            continue
        raw = [wg.weights[index] for index, _ in rewrites]
        for (_, child), p in _renormalized(rewrites, raw):
            if child is None:
                child = escaped
            elif p > 0.0 and not terminal[child]:
                inner[i].append(child)
            edges[i].append((child, p))
    components = _components([i for i in range(escaped) if not terminal[i]], inner)
    live = terminal + [False]  # sinks first, each component after all it reaches
    for component in reversed(components):
        alive = any(live[child] for f in component for child, p in edges[f] if p > 0.0)
        for f in component:
            live[f] = alive

    mass = [0.0] * (escaped + 1)  # a terminal string's mass is what it absorbs
    mass[0] = 1.0

    def pass_on(i: int, visits: float) -> None:
        # What this adds to a member of a solved component is never read.
        if visits != 0.0:
            for child, p in edges[i]:
                mass[child] += visits * p

    for component in components:
        first = component[0]
        if not live[first]:
            continue
        if len(component) == 1 and first not in inner[first]:
            pass_on(first, mass[first])
            continue
        inflow = [mass[f] for f in component]
        if not any(inflow):
            continue
        # I - Q^T, each diagonal entry the form's outflow (see above).
        within = {f: k for k, f in enumerate(component)}
        a = np.zeros((len(component), len(component)))
        for k, f in enumerate(component):
            for child, p in edges[f]:
                if child != f:
                    a[k, k] += p
                    if child in within:
                        a[within[child], k] -= p
        try:
            visits = np.linalg.solve(a, inflow)
        except np.linalg.LinAlgError:
            raise ValueError("a cycle's solve is singular in floating point") from None
        for k, f in enumerate(component):
            pass_on(f, float(visits[k]))
    return {w: mass[i] for w, i in zip(reach.words, reach.found.values())}


def _components(ids: list[int], inner: list[list[int]]) -> list[list[int]]:
    """The strongly connected components of ``inner``'s edges among ``ids``,
    sources first, each sorted by id; ``inner`` is indexed by id and its
    edges stay among ``ids``.

    Tarjan (1972), with an explicit stack of (id, unvisited edges) instead of
    recursion.  Tarjan completes each component after every component it
    reaches, so the reversed order of completion puts sources first.  A
    completed form's order becomes ``done``, later than every first visit,
    so an edge into a completed component lowers no low link.
    """
    done = len(inner)
    order = [-1] * done  # id -> the order of its first visit, -1 before it
    low = [0] * done
    visited = 0
    stack: list[int] = []
    components: list[list[int]] = []
    for root in ids:
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, iter(inner[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                if order[w] < 0:
                    order[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append((w, iter(inner[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                        order[component[-1]] = done
                    components.append(sorted(component))
    components.reverse()
    return components


def string_probability(
    wg: WeightedGrammar, w: SymbolString, fuel: int = DEFAULT_FUEL
) -> float:
    """Exact probability of deriving the terminal string ``w``.

    The first call per grammar object, weights and ``len(w)`` sweeps the whole
    bounded language up to ``len(w)``; later calls read that kept sweep.
    """
    if not w.is_all_terminal():
        raise ValueError(f"string must contain only terminals: {w}")
    return _absorption(wg, len(w), fuel).get(w, 0.0)


def exact_distribution(
    wg: WeightedGrammar, bound: int, fuel: int = DEFAULT_FUEL
) -> StringDistribution:
    """One search and one sweep at ``bound`` give the exact distribution up to it."""
    absorbed = _absorption(wg, bound, fuel)
    probabilities = {w: absorbed[w] for w in sorted(absorbed, key=shortlex)}
    residual = max(0.0, 1.0 - sum(probabilities.values()))
    return StringDistribution(probabilities, bound, residual)


def total_variation(d1: StringDistribution, d2: StringDistribution) -> float:
    """Half the L1 distance, counting residual mass as disagreement."""
    if d1.bound != d2.bound:
        raise BoundMismatchError(f"bounds differ: {d1.bound} != {d2.bound}")
    # Summed in a fixed order: a float sum in set order would vary between runs.
    support = sorted({*d1.probabilities, *d2.probabilities}, key=shortlex)
    diff = sum(
        abs(d1.probabilities.get(w, 0.0) - d2.probabilities.get(w, 0.0)) for w in support
    )
    return 0.5 * (diff + abs(d1.residual - d2.residual))
