"""One-step rewriting and bounded derivation search.

``apply_step`` rewrites a single window of a sentential form.  ``_rewrites``
is the one loop that lists every one-step rewrite of a form, in (position,
production index) lexicographic order, which fixes the exploration order
everywhere else.  It works on coded forms (below), and gives each rewrite as
a bare ``(position, index, after)`` tuple, ``after`` coded too.
``successors`` encodes its form and splices each rewrite's symbols from the
production's sides.  The sampler walks coded forms and, like the search,
keeps each step as a (parent, production index, position) triple, from
which ``_chain`` builds trace steps.  The grammar predictor decodes the
rewrites its rules keep.

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
grammar instance itself holds (:func:`_compiled`).  The view gives each
symbol of the productions a one-character code, in order of first
appearance, and the start symbol the next one if no production holds it; one
more code, in no left side, stands for every symbol outside the grammar.  A
form is coded as the string of its symbols' codes, so a terminal and a
nonterminal of one name stay apart.  Code points run out past 1 114 111
distinct symbols, since the last of the 1 114 112 is kept for the symbols
outside: compiling a grammar with more raises ``ValueError``.  Each distinct
left side, coded, is filed under its first nonterminal, which every left
side has.  ``_rewrites`` takes the filed nonterminals that occur in a form,
finds every occurrence of each left side filed under them with ``str.find``,
overlapping ones included, and sorts the hits by (position, production
index).  On the first search the view also holds the search profile,
computed once from the coded sides: the start form's minimal yield and, by
production, the yield change ``min_yield(rhs) - min_yield(lhs)``.  The
minimal yield sums over a form's symbols, so a rewrite changes it by
exactly that in all three accepted shapes: the change in length for
monotone grammars (-1 for the start erasure), the change in non-nullable
symbols for erasing context-free ones.  A search adds it to the parent's
yield, kept in a list of the search's own, and tests the child against the
bound before it looks the child up.  And it keeps the last
``_SEARCH_CACHE_SIZE`` (16) searches, keyed by ``(max_len, fuel)``, so that
repeated queries on one grammar object share a search, the exact
probabilities of :mod:`lcsg.stochastic` included; an equal grammar parsed
again starts cold.  That one cache drops the least
recently used search first, and each search keeps the last exact-probability
sweep over it with the weights it read: one float per terminal string, so a
repeated string probability is a look-up.  A sweep is dropped with its
search.  Nothing is kept from a call that raises: a search that runs out of
fuel returns and is kept, but a sweep over it raises and is not.  The view
is freed with its grammar and is never pickled.

Each form a search reaches gets an id, its place in breadth-first order,
from one map keyed by coded forms that lives only while the search runs: a
``str`` caches its hash, and no form but a terminal string is wrapped in a
``SymbolString``.  By id, the search keeps the coded form and the step that
first reached it as a ``(parent id, production index, position)`` triple.
For each form it expands, it also records every rewrite in successor order,
as the production index and the child's id, or ``None`` where the child
leaves the bound.  When it ends it decodes its terminal strings, and only
those, once, into one map from their symbol tuples to their ids in id
order, and wraps each once:
``derives_bounded`` looks its target up in the map, and
``enumerate_language`` and the sweep read the wrapped strings.  Exact
probabilities read the record as one graph over ids, swept in one
topological order of its cycles; neither they nor enumeration test a form
for terminals, and the sweep expands no form itself.  The first
``derives_bounded`` of a terminal string walks the parent ids back to the
start, splicing each step's form from the one after it, and keeps the steps
of that one chain in the search's trace store, keyed by the string's id;
every call wraps the kept steps in a new :class:`DerivationTrace` without
checking the chain again, since it is chained by construction.  The store
keeps steps, not traces, so it refers to no grammar; it holds at most one
entry per terminal string the search kept and is dropped with its search.
The record keeps nothing else that the library does not read.  A search
expands at most ``fuel`` forms, so a completed search keeps at most ``fuel``
forms, each with its triple; one that runs out of fuel also keeps the forms
it reached but did not expand, up to ``fuel`` times the largest number of
rewrites of one form, plus one.  Either way it records at most ``fuel``
times that number of rewrites, each a pair of an index and an id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

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

    @classmethod
    def _of(cls, grammar: Grammar, steps: tuple[DerivationStep, ...]) -> "DerivationTrace":
        """Wrap a tuple of steps, skipping ``__post_init__``'s chain check.

        Only for steps chained by construction from ``grammar``'s start form,
        as the search's and the sampler's are.
        """
        t = object.__new__(cls)
        object.__setattr__(t, "grammar", grammar)
        object.__setattr__(t, "steps", steps)
        return t

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




def _rewrites(form: str, view: _CompiledGrammar) -> list[tuple[int, int, str]]:
    """Every one-step rewrite of the coded form ``form``, as (position,
    production index, after), in successor order, which is the order of
    these tuples; ``after`` is coded too."""
    table = view.table
    hits: list[tuple[int, int, str]] = []
    sides = 0  # left sides found; one alone lists its hits in order
    for head in view.filed.intersection(form):
        for lhs, width, entries in table[head]:
            position = form.find(lhs)
            sides += position >= 0
            while position >= 0:
                before, rest = form[:position], form[position + width:]
                for index, rhs in entries:
                    hits.append((position, index, before + rhs + rest))
                position = form.find(lhs, position + 1)
    if sides > 1:
        hits.sort()  # (position, index) pairs are distinct, so no string is compared
    return hits


def successors(w: SymbolString, g: Grammar) -> list[DerivationStep]:
    """All one-step rewrites of ``w``, ordered by (position, production index)."""
    view = _compiled(g)
    symbols, sides = w.symbols, view.sides
    steps = []
    for position, index, _ in _rewrites(view.encode(symbols), view):
        lhs, rhs = sides[index]  # a window the loop matched, so unchecked
        after = SymbolString._of(symbols[:position] + rhs + symbols[position + len(lhs):])
        steps.append(DerivationStep(w, index, position, after))
    return steps


def _profile(view: _CompiledGrammar, g: Grammar) -> tuple[int, list[int]]:
    """Vet the grammar for bounded search; return the start form's minimal
    yield and, by production, its yield changes.

    Both count the symbols outside the nullable set, which is empty for
    purely monotone grammars (including the permitted lone ``start ->``
    empty production), and the nullable closure for single-nonterminal-lhs
    grammars with erasing productions.
    """
    sides = view.coded
    changes = [len(rhs) - len(lhs) for lhs, rhs in sides]
    if min(changes, default=0) >= 0:
        return 1, changes
    if any(len(lhs) > 1 for lhs, _ in sides):
        if not validate_grammar(g).noncontracting:
            raise NotNoncontractingError(
                "grammar mixes shrinking productions with multi-symbol left sides"
            )
        # Only the permitted start erasure shrinks; it fires once, at the start form.
        return 1, changes
    nullable: set[str] = set()  # each lhs here is one code
    changed = True
    while changed:
        changed = False
        for lhs, rhs in sides:
            if lhs not in nullable and nullable.issuperset(rhs):
                nullable.add(lhs)
                changed = True
    erase = dict.fromkeys(map(ord, nullable))
    return int(view.codes[g.start] not in nullable), [
        len(rhs.translate(erase)) - len(lhs.translate(erase)) for lhs, rhs in sides
    ]


@dataclass
class _Reachability:
    # A form's id is its place in breadth-first order, and the lists are
    # indexed by it: the coded form, the step that first reached it as
    # (parent id, production index, position) (None for the start form), and
    # for each form expanded its rewrites in successor order as (production
    # index, the child's id, or None where it leaves the bound).  ``found``
    # maps the symbol tuple of each terminal string kept to its id, in id
    # order, decoded once when the search ends, and ``words`` holds the same
    # strings wrapped, in the same order.  No form's yield is kept: the
    # search derives yields as it goes.
    coded: list[str]
    steps: list[tuple[int, int, int] | None]
    rewrites: list[tuple[tuple[int, int | None], ...]]
    found: dict[tuple[Symbol, ...], int] = field(default_factory=dict)
    words: list[SymbolString] = field(default_factory=list)
    completed: bool = False
    # The last exact-probability sweep over this search, as (weights, the
    # absorbed mass of each terminal string), or None before the first.
    sweep: tuple[tuple[float, ...], dict[SymbolString, float]] | None = None
    # The trace store: by the id of each terminal string ``derives_bounded``
    # has found, the steps of its chain from the start form, built once.  At
    # most one entry per terminal string kept; no grammar is referred to.
    traces: dict[int, tuple[DerivationStep, ...]] = field(default_factory=dict)


class _CompiledGrammar:
    """What rewriting and the bounded search need of one grammar.

    ``codes`` gives each symbol of the productions its one-character code,
    in order of first appearance, and then the start symbol if no production
    holds it; ``symbols`` decodes, by code point, and ``stranger``, the next
    code, stands for any other symbol.  ``sides`` holds each production's
    (lhs, rhs) symbol tuples by index, from which ``successors`` splices
    each form after a rewrite and ``_chain`` each form before one, and
    ``coded`` the same pairs coded.  ``table`` files each distinct coded
    left side under its first nonterminal's code, in order of first
    appearance, with the productions that have it, in index order, as
    ``(coded lhs, its length, [(index, coded rhs), ...])``; ``filed`` is the
    set of those nonterminals and ``nonterminals`` the codes of all.
    ``start_yield`` is the start form's minimal yield, or ``None`` until the
    first search computes it from ``_profile``; that search also fills
    ``yield_changes``, by production index, each ``min_yield(rhs) -
    min_yield(lhs)``, the exact change a rewrite by that production makes to
    its form's minimal yield.  ``searches``, the one
    cache, keeps the last ``_SEARCH_CACHE_SIZE`` bounded searches, keyed by
    ``(max_len, fuel)`` and least recently used first; each holds the last
    sweep of :mod:`lcsg.stochastic` over it and its trace store.
    """

    def __init__(self, g: Grammar) -> None:
        self.sides = [(p.lhs.symbols, p.rhs.symbols) for p in g.productions]
        # Each symbol once, in order of first appearance.
        symbols = dict.fromkeys(chain.from_iterable(chain.from_iterable(self.sides)))
        symbols[g.start] = None
        self.symbols = tuple(symbols)
        self.codes = codes = dict(zip(self.symbols, map(chr, range(len(symbols)))))
        self.stranger = chr(len(codes))  # past the last code point, ValueError
        self.nonterminals = nonterminals = frozenset(
            code for s, code in codes.items() if s.is_nonterminal
        )
        self.coded = [
            ("".join([codes[s] for s in lhs]), "".join([codes[s] for s in rhs]))
            for lhs, rhs in self.sides
        ]
        self.table: dict[str, list[tuple[str, int, list[tuple[int, str]]]]] = {}
        entries_of: dict[str, list[tuple[int, str]]] = {}  # by coded left side
        for index, (lhs, rhs) in enumerate(self.coded):
            entries = entries_of.get(lhs)
            if entries is None:
                entries = entries_of[lhs] = []
                for head in lhs:
                    if head in nonterminals:
                        break
                self.table.setdefault(head, []).append((lhs, len(lhs), entries))
            entries.append((index, rhs))
        self.filed = frozenset(self.table)
        self.start_yield: int | None = None
        self.yield_changes: list[int] = []
        self.searches: dict[tuple[int, int], _Reachability] = {}

    def encode(self, symbols: tuple[Symbol, ...]) -> str:
        """The coded form of ``symbols``; a symbol outside the grammar gets ``stranger``."""
        codes, stranger = self.codes, self.stranger
        return "".join([codes.get(s, stranger) for s in symbols])

    def decode(self, form: str) -> tuple[Symbol, ...]:
        """The symbols of a coded form that holds no stranger."""
        symbols = self.symbols
        return tuple([symbols[ord(code)] for code in form])


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
    if view.start_yield is None:  # a refused grammar raises here on every call
        view.start_yield, view.yield_changes = _profile(view, g)
    yield_changes, nonterminals = view.yield_changes, view.nonterminals
    start = view.codes[g.start]
    ids, coded, steps, rewrites = {start: 0}, [start], [None], []  # ids by coded form
    reach = _Reachability(coded, steps, rewrites)
    strings: list[int] = []  # the ids of the terminal strings kept
    yields = [view.start_yield]  # by id; the record keeps no yield
    # The form to expand next is the one whose id is the number expanded so far.
    while len(rewrites) < len(coded):
        parent = len(rewrites)
        if parent >= fuel:
            # The terminal strings reached but not expanded are kept too.
            strings += [i for i in range(parent, len(coded)) if nonterminals.isdisjoint(coded[i])]
            break
        form, base = coded[parent], yields[parent]
        out: list[tuple[int, int | None]] = []
        for position, index, after in _rewrites(form, view):
            child_yield = base + yield_changes[index]
            if child_yield <= max_len:
                child = ids.get(after)
                if child is None:
                    child = ids[after] = len(coded)
                    coded.append(after)
                    steps.append((parent, index, position))
                    yields.append(child_yield)
            else:
                # Left the bound: every kept form but the start fits it, and
                # a start above it is reached again only by its own rewrite.
                child = ids.get(after) if base > max_len else None
            out.append((index, child))
        if not out and nonterminals.isdisjoint(form):
            strings.append(parent)
        rewrites.append(tuple(out))
    else:
        reach.completed = True
    reach.found = {view.decode(coded[i]): i for i in strings}
    reach.words = [SymbolString._of(w) for w in reach.found]
    return reach


def _chain(
    sides: list[tuple[tuple[Symbol, ...], tuple[Symbol, ...]]],
    parents: list[tuple[int, int, int] | None],
    i: int,
    final: SymbolString,
) -> tuple[DerivationStep, ...]:
    """The steps from the start form to form ``i``, which is ``final``, read
    back along parent ids, a search's or the sampler's; each step's form is
    spliced from the one after it.

    The forms and steps are built without their dataclass ``__init__``: the
    forms need no check, being spliced from checked ones, and building them
    is most of a first query's time.
    """
    new = object.__new__
    steps: list[DerivationStep] = []
    after = final
    while (step := parents[i]) is not None:
        i, index, position = step
        lhs, rhs = sides[index]
        symbols = after.symbols
        before = new(SymbolString)
        before.__dict__["symbols"] = symbols[:position] + lhs + symbols[position + len(rhs):]
        made = new(DerivationStep)
        fields = made.__dict__
        fields["before"], fields["production_index"] = before, index
        fields["position"], fields["after"] = position, after
        steps.append(made)
        after = before
    steps.reverse()
    return tuple(steps)


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
    if (i := reach.found.get(target.symbols)) is not None:
        steps = reach.traces.get(i)
        if steps is None:
            steps = reach.traces[i] = _chain(_compiled(g).sides, reach.steps, i, target)
        return DerivationTrace._of(g, steps)
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
    # The search decoded its terminal strings; each fits the bound, since its
    # minimal yield is its length.
    return set(reach.words)
