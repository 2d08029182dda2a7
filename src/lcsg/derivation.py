"""One-step rewriting and bounded derivation search.

``apply_step`` rewrites a single window of a sentential form.  ``_rewrites``
is the one loop that lists every one-step rewrite of a form, in (position,
production index) lexicographic order, which fixes the exploration order
everywhere else.  Each is a bare ``(index, position, symbols)`` tuple, which
``successors`` wraps, the search only if kept, the sampler only if drawn.

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
productions by the first ``Symbol`` of their lhs, so ``_rewrites`` tries at
each position only the productions that start with the symbol there.  On
the first search it also holds the search profile.  And it keeps the last
``_SEARCH_CACHE_SIZE`` (16) searches, keyed by ``(max_len, fuel)``, so that
repeated queries on one grammar object share a search, the exact
probabilities of :mod:`lcsg.stochastic` included; an equal grammar parsed
again starts cold.  That one cache drops the least recently used search
first, and each search keeps the last exact-probability sweep over it with
the weights it read: one float per terminal string, so a repeated string
probability is a look-up.  A sweep is dropped with its search.  Nothing is
kept from a call that raises: a search that runs out of fuel returns and
is kept, but a sweep over it raises and is not.  The view is freed with
its grammar and is never pickled.

Each form a search reaches gets an id, its place in breadth-first order,
from the one map keyed by forms, on their symbol tuples.  By id, the search
keeps the form and the :class:`DerivationStep` that first reached it; the
trace ``derives_bounded`` returns is the chain of those steps back to the
start.  For each form it expands, the search also records every rewrite in
successor order, as the production index and the child's id, or ``None``
where the child leaves the bound.  Exact probabilities read this record as
one graph over ids, swept in one topological order of its cycles; they
expand no form themselves and look a form up only for the terminal strings
they absorb.  A search expands at most ``fuel`` forms, so a completed
search keeps at most ``fuel`` forms, each with its step; one that runs out
of fuel also keeps the forms it reached but did not expand, up to ``fuel``
times the largest number of rewrites of one form, plus one.  Either way it
records at most ``fuel`` times that number of rewrites, each a pair of an
index and an id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import Grammar, Production, validate_grammar
from .symbols import Symbol, SymbolString

DEFAULT_FUEL = 1_000_000
# Searches kept per grammar: room for one query length after another up to
# 15, while a grammar's search records stay bounded (the module docstring gives
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


def _rewrites(symbols: tuple[Symbol, ...], by_head: dict) -> list[tuple[int, int, tuple]]:
    """Every one-step rewrite of the form ``symbols``, as (production index,
    position, after), in successor order; ``after`` is a bare symbol tuple."""
    out: list[tuple[int, int, tuple]] = []
    for position, head in enumerate(symbols):
        for index, width, second, rest, rhs in by_head.get(head, ()):
            # Interned symbols: ``is`` tells kinds apart; a cut-short window never matches.
            end = position + width
            if second is None or (
                end <= len(symbols) and symbols[position + 1] is second
                and (not rest or symbols[position + 2:end] == rest)
            ):
                out.append((index, position, symbols[:position] + rhs + symbols[end:]))
    return out


def successors(w: SymbolString, g: Grammar) -> list[DerivationStep]:
    """All one-step rewrites of ``w``, ordered by (position, production index)."""
    return [
        DerivationStep(w, index, position, SymbolString._of(after))
        for index, position, after in _rewrites(w.symbols, _compiled(g).by_head)
    ]


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


@dataclass
class _Reachability:
    # A form's id is its place in breadth-first order; ``ids`` maps each
    # form's symbols to it, and the lists are indexed by it: the form, the
    # step that first reached it (None for the start form), and for each
    # form expanded its rewrites in successor order as (production index,
    # the child's id, or None where it leaves the bound).
    ids: dict[tuple[Symbol, ...], int]
    forms: list[SymbolString]
    steps: list[DerivationStep | None]
    rewrites: list[tuple[tuple[int, int | None], ...]]
    completed: bool = False
    # The last exact-probability sweep over this search, as (weights, the
    # absorbed mass of each terminal string), or None before the first.
    sweep: tuple[tuple[float, ...], dict[SymbolString, float]] | None = None


class _CompiledGrammar:
    """What rewriting and the bounded search need of one grammar.

    ``by_head`` maps each lhs's first ``Symbol``, an interned key that keeps
    kinds apart, to the productions whose lhs starts with it, in index
    order, as ``(index, lhs length, second lhs symbol or None, lhs[2:],
    rhs)``.  ``nullable`` is ``_search_profile``'s set, or ``None`` until the
    first search computes it.  ``searches``, the one cache, keeps the last
    ``_SEARCH_CACHE_SIZE`` bounded searches, keyed by ``(max_len, fuel)``
    and least recently used first; each holds the last sweep of
    :mod:`lcsg.stochastic` over it.
    """

    def __init__(self, g: Grammar) -> None:
        self.by_head: dict[Symbol, list[tuple]] = {}
        for index, p in enumerate(g.productions):
            lhs = p.lhs.symbols
            second = lhs[1] if len(lhs) > 1 else None
            entry = (index, len(lhs), second, lhs[2:], p.rhs.symbols)
            self.by_head.setdefault(lhs[0], []).append(entry)
        self.nullable: frozenset[Symbol] | None = None
        self.searches: dict[tuple[int, int], _Reachability] = {}

    def min_yield(self, symbols: tuple[Symbol, ...]) -> int:
        """The fewest terminals the form ``symbols`` can derive."""
        return sum(s not in self.nullable for s in symbols) if self.nullable else len(symbols)


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
    A negative ``max_len`` or ``fuel`` raises ``ValueError`` when the search
    would run, so a cached query checks nothing.  A hit moves to the end, so
    a full cache drops its first, least recently used search.
    """
    view = _compiled(g)
    key = (max_len, fuel)
    reach = view.searches.pop(key, None)
    if reach is None:
        reach = _search(g, view, max_len, fuel)
        if len(view.searches) >= _SEARCH_CACHE_SIZE:
            del view.searches[next(iter(view.searches))]
    view.searches[key] = reach
    return reach


def _search(g: Grammar, view: _CompiledGrammar, max_len: int, fuel: int) -> _Reachability:
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    if view.nullable is None:
        view.nullable = _search_profile(g)
    initial = SymbolString((g.start,))
    ids, forms, steps, rewrites = {initial.symbols: 0}, [initial], [None], []
    reach = _Reachability(ids, forms, steps, rewrites)
    # The form to expand next is the one whose id is the number expanded so far.
    while len(rewrites) < len(forms):
        if len(rewrites) >= fuel:
            return reach
        form = forms[len(rewrites)]
        out: list[tuple[int, int | None]] = []
        for index, position, symbols in _rewrites(form.symbols, view.by_head):
            child = ids.get(symbols)
            if child is None and view.min_yield(symbols) <= max_len:
                child = ids[symbols] = len(forms)
                after = SymbolString._of(symbols)
                forms.append(after)
                steps.append(DerivationStep(form, index, position, after))
            out.append((index, child))  # None: the rewrite leaves the bound
        rewrites.append(tuple(out))
    reach.completed = True
    return reach


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
    if (i := reach.ids.get(target.symbols)) is not None:
        steps: list[DerivationStep] = []
        step = reach.steps[i]
        while step is not None:
            steps.append(step)
            step = reach.steps[reach.ids[step.before.symbols]]
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
    return {form for form in reach.forms if form.is_all_terminal()}
