"""The bounded search path, as computed before grammars were compiled.

Kept verbatim as the reference that ``test_derivation_differential.py``
compares :func:`lcsg.successors`, :func:`lcsg.enumerate_language` and
:func:`lcsg.derives_bounded` against: ``successors`` slices a new
``SymbolString`` for every (position, production) pair, and the search
results sit in a module-level ``lru_cache`` keyed by the whole grammar.
The grammar vetting and the nullable closure, ``_search_profile`` and
``_nullable_closure``, are the library's own from before the search coded
its sides, so that no search here shares the library's profile; the
stochastic and rational oracles read them from here too.  ``record_forms``
decodes a library search record's forms for the tests that inspect it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from lcsg.derivation import (
    DEFAULT_FUEL,
    DerivationStep,
    DerivationTrace,
    FuelExhaustedError,
    NotNoncontractingError,
    _compiled,
    apply_step,
)
from lcsg.grammar import Grammar, validate_grammar
from lcsg.symbols import Symbol, SymbolString


def successors(w: SymbolString, g: Grammar) -> list[DerivationStep]:
    """All one-step rewrites of ``w``, ordered by (position, production index)."""
    steps: list[DerivationStep] = []
    for position in range(len(w)):
        for index, p in enumerate(g.productions):
            if position + len(p.lhs) > len(w):
                continue
            if w[position:position + len(p.lhs)] == p.lhs:
                steps.append(DerivationStep(w, index, position, apply_step(w, p, position)))
    return steps


def _nullable_closure(g: Grammar) -> frozenset[Symbol]:
    """The symbols that derive the empty string; every lhs here is one symbol."""
    nullable: set[Symbol] = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            head = p.lhs[0]
            if head in nullable:
                continue
            if all(s in nullable for s in p.rhs):
                nullable.add(head)
                changed = True
    return frozenset(nullable)


def _search_profile(g: Grammar) -> frozenset[Symbol]:
    """Vet the grammar for bounded search; return the nullable symbol set.

    The returned set is empty for purely monotone grammars (including the
    permitted lone ``start ->`` empty production), and the nullable closure
    for single-nonterminal-lhs grammars with erasing productions.
    """
    shrinking = [p for p in g.productions if len(p.rhs) < len(p.lhs)]
    if not shrinking:
        return frozenset()
    if all(len(p.lhs) == 1 for p in g.productions):
        return _nullable_closure(g)
    if validate_grammar(g).noncontracting:
        # Only the permitted start erasure shrinks; it fires once, at the start form.
        return frozenset()
    raise NotNoncontractingError(
        "grammar mixes shrinking productions with multi-symbol left sides"
    )


def record_forms(g: Grammar, reach) -> list[SymbolString]:
    """Every form a library search record keeps, by id, decoded through ``g``'s view."""
    view = _compiled(g)
    return [SymbolString(view.decode(form)) for form in reach.coded]


def _min_yield(form: SymbolString, nullable: frozenset[Symbol]) -> int:
    """The fewest terminals ``form`` can derive, given ``_search_profile``'s set."""
    if not nullable:
        return len(form)
    return sum(1 for s in form if s not in nullable)


@dataclass(frozen=True)
class _Reachability:
    parents: dict  # form -> (parent form, production_index, position) | None
    completed: bool


@lru_cache(maxsize=256)
def _bounded_reachability(g: Grammar, max_len: int, fuel: int) -> _Reachability:
    nullable = _search_profile(g)
    initial = SymbolString((g.start,))
    parents: dict[SymbolString, tuple | None] = {initial: None}
    frontier: deque[SymbolString] = deque([initial])
    expanded = 0
    while frontier:
        if expanded >= fuel:
            return _Reachability(parents, completed=False)
        form = frontier.popleft()
        expanded += 1
        for step in successors(form, g):
            child = step.after
            if child in parents or _min_yield(child, nullable) > max_len:
                continue
            parents[child] = (form, step.production_index, step.position)
            frontier.append(child)
    return _Reachability(parents, completed=True)


def _trace_from_parents(g: Grammar, parents: dict, target: SymbolString) -> DerivationTrace:
    chain: list[tuple[SymbolString, int, int]] = []
    form = target
    while parents[form] is not None:
        parent, index, position = parents[form]
        chain.append((parent, index, position))
        form = parent
    chain.reverse()
    steps = tuple(
        DerivationStep(before, index, position, apply_step(before, g.productions[index], position))
        for before, index, position in chain
    )
    return DerivationTrace(g, steps)


def derives_bounded(
    g: Grammar, target: SymbolString, fuel: int = DEFAULT_FUEL
) -> DerivationTrace | None:
    """Search for a derivation of ``target``, a terminal string.

    Returns a shortest derivation trace when one exists, ``None`` when the
    bounded search exhausts every form without finding the target (a
    definitive negative for the accepted grammar shapes), and raises
    :class:`FuelExhaustedError` when fuel runs out first.
    """
    if not target.is_all_terminal():
        raise ValueError(f"target must contain only terminals: {target}")
    reach = _bounded_reachability(g, len(target), fuel)
    if target in reach.parents:
        return _trace_from_parents(g, reach.parents, target)
    if reach.completed:
        return None
    raise FuelExhaustedError(f"fuel {fuel} exhausted searching for {target}")


def enumerate_language(
    g: Grammar, max_len: int, fuel: int = DEFAULT_FUEL
) -> set[SymbolString]:
    """Every terminal string of length at most ``max_len`` the grammar derives."""
    reach = _bounded_reachability(g, max_len, fuel)
    if not reach.completed:
        raise FuelExhaustedError(f"fuel {fuel} exhausted enumerating up to length {max_len}")
    return {
        form
        for form in reach.parents
        if len(form) <= max_len and form.is_all_terminal()
    }
