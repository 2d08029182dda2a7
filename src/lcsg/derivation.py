"""One-step rewriting and bounded derivation search.

``apply_step`` rewrites a single window of a sentential form.  ``_rewrites``
is the one loop that lists every one-step rewrite of a form, in (position,
production index) lexicographic order, which fixes the exploration order
everywhere else.  ``successors`` wraps each rewrite in a
:class:`DerivationStep`; the bounded search and the sampler read them bare.

``derives_bounded`` and ``enumerate_language`` run a breadth-first search
over sentential forms whose minimal terminal yield stays within the length
bound.  For grammars without erasing productions the yield of a form is its
length, so the search is the classic noncontracting membership procedure.
Erasing productions are accepted in exactly two shapes: the start symbol may
erase when it occurs on no right side, and grammars in which every left
side is a single nonterminal may erase freely (there the bound uses the
standard nullable-symbol closure).  Any other shrinking production raises
:class:`NotNoncontractingError`.

The search is fuelled: expanding more than ``fuel`` forms without emptying
the frontier raises :class:`FuelExhaustedError`, a deliberately distinct
outcome from a definitive "not derivable".

Each ``Grammar`` is compiled once, on first use, into a view that the
grammar instance itself holds (:func:`_compiled`).  It groups the
productions by the first symbol of their lhs, so ``_rewrites`` tries at
each position only the productions that start with the symbol there.  On
the first search it also holds the search profile.  And it keeps the last
``_SEARCH_CACHE_SIZE`` (16) searches, keyed by ``(max_len, fuel)``, so that
repeated queries on one grammar object share a search, the exact
probabilities of :mod:`lcsg.stochastic` included; an equal grammar parsed
again starts cold.  The view is freed with its grammar and is never pickled.

For each form it reaches, a search keeps the :class:`DerivationStep` that
first reached it, and the trace ``derives_bounded`` returns is the chain of
those steps back to the start form.  For each form it expands, it also
records every rewrite in successor order, as the production index and the
child: the very form object the search keeps, or ``None`` where the child
leaves the bound.  Exact probabilities read their edges from this record
and expand no form themselves.  A search expands at most ``fuel`` forms,
so a completed search keeps at most ``fuel`` forms; one that runs out of
fuel also keeps the forms it reached but did not expand, up to ``fuel``
times the largest number of rewrites of one form, plus one.  Either way it
records at most ``fuel`` times that number of rewrites, each a pair of an
index and a reference, with no form of its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .grammar import Grammar, Production, validate_grammar
from .symbols import Symbol, SymbolString

DEFAULT_FUEL = 1_000_000
# Searches kept per grammar: room for one query length after another up to
# 15, while a grammar's parent maps stay bounded (the module docstring gives
# the bound on the forms and rewrites that one search keeps).
_SEARCH_CACHE_SIZE = 16


class NoMatchError(ValueError):
    """The production's lhs does not occur at the requested position."""


class OutOfRangeError(IndexError):
    """The rewrite window does not fit inside the form."""


class NotNoncontractingError(ValueError):
    """The grammar shrinks in a shape the bounded search cannot handle."""


class FuelExhaustedError(RuntimeError):
    """The search ran out of fuel before reaching a definitive answer."""


@dataclass(frozen=True)
class DerivationStep:
    """One rewrite: ``before`` at ``position`` via production ``production_index``."""

    before: SymbolString
    production_index: int
    position: int
    after: SymbolString


@dataclass(frozen=True)
class DerivationTrace:
    """A chained sequence of rewrites over one grammar."""

    grammar: Grammar
    steps: tuple[DerivationStep, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.steps, tuple):
            object.__setattr__(self, "steps", tuple(self.steps))
        start_form = SymbolString((self.grammar.start,))
        for i, step in enumerate(self.steps):
            expected = start_form if i == 0 else self.steps[i - 1].after
            if step.before != expected:
                raise ValueError(f"trace breaks at step {i}: {step.before} != {expected}")

    @property
    def final(self) -> SymbolString:
        if self.steps:
            return self.steps[-1].after
        return SymbolString((self.grammar.start,))


def apply_step(w: SymbolString, p: Production, position: int) -> SymbolString:
    """Rewrite ``w`` by ``p`` at ``position``; the lhs must match exactly there."""
    if position < 0 or position + len(p.lhs) > len(w):
        raise OutOfRangeError(
            f"window [{position}, {position + len(p.lhs)}) outside form of length {len(w)}"
        )
    if w[position:position + len(p.lhs)] != p.lhs:
        raise NoMatchError(f"{p.lhs} does not occur at position {position} in {w}")
    return w[:position] + p.rhs + w[position + len(p.lhs):]


def _rewrites(form: SymbolString, by_head: dict) -> list[tuple[int, int, SymbolString]]:
    """Every one-step rewrite of ``form``, as (production index, position,
    after), in successor order; ``by_head`` is the compiled grammar's."""
    symbols = form.symbols
    out: list[tuple[int, int, SymbolString]] = []
    for position, head in enumerate(symbols):
        for index, lhs, rhs in by_head.get(head.name, ()):
            # The whole-tuple comparison also tells kinds apart under one
            # name, and a window cut short by the end never matches.
            end = position + len(lhs)
            if symbols[position:end] == lhs:
                after = SymbolString._of(symbols[:position] + rhs + symbols[end:])
                out.append((index, position, after))
    return out


def successors(w: SymbolString, g: Grammar) -> list[DerivationStep]:
    """All one-step rewrites of ``w``, ordered by (position, production index)."""
    return [DerivationStep(w, *rewrite) for rewrite in _rewrites(w, _compiled(g).by_head)]


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


@dataclass(frozen=True)
class _Reachability:
    # Each form the search reached -> the step that first reached it, None
    # for the start form; a trace is the chain of these steps back to it.
    parents: dict[SymbolString, DerivationStep | None]
    # The rewrites of the i-th expanded form, which is the i-th key of
    # ``parents``, in successor order: (production index, the child as
    # ``parents``' own key, or None where the child leaves the bound).
    rewrites: list[tuple[tuple[int, SymbolString | None], ...]]
    completed: bool


class _CompiledGrammar:
    """What rewriting and the bounded search need of one grammar.

    ``by_head`` maps the name of each lhs's first symbol to the productions
    whose lhs starts with it, as ``(index, lhs, rhs)`` symbol tuples in
    production-index order.  ``nullable`` is ``_search_profile``'s set, or
    ``None`` until the first search computes it.  ``searches`` keeps the
    last ``_SEARCH_CACHE_SIZE`` bounded searches, keyed by ``(max_len,
    fuel)`` and least recently used first.
    """

    def __init__(self, g: Grammar) -> None:
        self.by_head: dict[str, list[tuple[int, tuple[Symbol, ...], tuple[Symbol, ...]]]] = {}
        for index, p in enumerate(g.productions):
            entry = (index, p.lhs.symbols, p.rhs.symbols)
            self.by_head.setdefault(p.lhs[0].name, []).append(entry)
        self.nullable: frozenset[Symbol] | None = None
        self.searches: dict[tuple[int, int], _Reachability] = {}

    def min_yield(self, form: SymbolString) -> int:
        """The fewest terminals ``form`` can derive."""
        if not self.nullable:
            return len(form)
        return sum(1 for s in form.symbols if s not in self.nullable)


def _compiled(g: Grammar) -> _CompiledGrammar:
    """``g``'s compiled view, built on first use and held by ``g`` itself."""
    try:
        return g.__dict__["_compiled"]
    except KeyError:
        view = _CompiledGrammar(g)
        object.__setattr__(g, "_compiled", view)
        return view


def _bounded_reachability(g: Grammar, max_len: int, fuel: int) -> _Reachability:
    """The search over forms whose minimal yield fits ``max_len``, cached on ``g``.

    Membership, enumeration and exact probabilities all read this one search.
    """
    view = _compiled(g)
    if view.nullable is None:
        view.nullable = _search_profile(g)
    key = (max_len, fuel)
    reach = view.searches.pop(key, None)
    if reach is None:
        reach = _search(g, view, max_len, fuel)
        if len(view.searches) >= _SEARCH_CACHE_SIZE:
            del view.searches[next(iter(view.searches))]
    view.searches[key] = reach
    return reach


_UNSEEN = object()  # parents.get's default: the form was not reached before


def _search(g: Grammar, view: _CompiledGrammar, max_len: int, fuel: int) -> _Reachability:
    initial = SymbolString((g.start,))
    parents: dict[SymbolString, DerivationStep | None] = {initial: None}
    rewrites: list[tuple[tuple[int, SymbolString | None], ...]] = []
    frontier: deque[SymbolString] = deque([initial])
    while frontier:
        if len(rewrites) >= fuel:
            return _Reachability(parents, rewrites, completed=False)
        form = frontier.popleft()
        out: list[tuple[int, SymbolString | None]] = []
        for index, position, after in _rewrites(form, view.by_head):
            first = parents.get(after, _UNSEEN)
            # A form reached before is recorded as the map's own key,
            # which the step that first reached it holds too.
            if first is None:
                after = initial
            elif first is not _UNSEEN:
                after = first.after
            elif view.min_yield(after) <= max_len:
                parents[after] = DerivationStep(form, index, position, after)
                frontier.append(after)
            else:
                after = None  # the rewrite leaves the bound
            out.append((index, after))
        rewrites.append(tuple(out))
    return _Reachability(parents, rewrites, completed=True)


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
        steps: list[DerivationStep] = []
        step = reach.parents[target]
        while step is not None:
            steps.append(step)
            step = reach.parents[step.before]
        return DerivationTrace(g, tuple(reversed(steps)))
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
    # A terminal form in the search fits the bound: its minimal yield is its length.
    return {form for form in reach.parents if form.is_all_terminal()}
