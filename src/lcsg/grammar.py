"""Rewriting grammars and their hierarchy classification.

A ``Grammar`` is a quadruple of nonterminals, terminals, a start symbol, and
an ordered production list.  Productions rewrite a window of a sentential
form, so the left side may mix terminals and nonterminals as long as it
contains at least one nonterminal.

Classification assigns each production every form template it satisfies:

``REGULAR``
    ``A -> a`` or ``A -> a B`` with ``a`` terminal and ``A``, ``B``
    nonterminal.
``CONTEXT_FREE``
    the left side is a single nonterminal.
``LEFT_CS``
    a decomposition ``lhs = alpha A``, ``rhs = alpha R`` exists with
    ``alpha`` arbitrary, ``A`` nonterminal, and ``R`` non-empty.  The
    rewrite depends only on context to the left and preserves it.  The
    rule's one home, ``_left_cs_defect``, also decides the form check that
    ``bridge.check_left_cs_form`` runs on every extracted production.
``STRICT_CS``
    a decomposition ``lhs = alpha A beta``, ``rhs = alpha R beta`` exists
    with ``R`` non-empty, preserving context on both sides.
``MONOTONE``
    the right side is at least as long as the left side.
``UNRESTRICTED``
    always.

A whole grammar is classified by the tightest template that every
production satisfies jointly, in the order above.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .symbols import Symbol, SymbolString


@dataclass(frozen=True)
class Production:
    """A rewrite rule ``lhs -> rhs`` with an optional nonnegative weight.

    The left side must be non-empty and contain at least one nonterminal.
    The right side may be empty, which denotes erasure; grammar validation
    restricts where erasing rules are considered noncontracting.
    """

    lhs: SymbolString
    rhs: SymbolString
    weight: float | None = None

    def __post_init__(self) -> None:
        if len(self.lhs) == 0:
            raise ValueError("production lhs must be non-empty")
        if not any(s.is_nonterminal for s in self.lhs):
            raise ValueError(f"production lhs needs a nonterminal: {self.lhs}")
        if self.weight is not None:
            w = float(self.weight)
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"production weight must be finite and >= 0: {w}")
            object.__setattr__(self, "weight", w)

    def __str__(self) -> str:
        text = f"{self.lhs} -> {self.rhs}"
        if self.weight is not None:
            text += f" p={self.weight!r}"
        return text


@dataclass(frozen=True)
class Grammar:
    """A rewriting grammar: alphabets, start symbol, ordered productions.

    Construction does not enforce the alphabet invariants; build any
    quadruple and ask :func:`validate_grammar` for a report.  This keeps
    validation observable rather than folded into the constructor.
    """

    nonterminals: frozenset[Symbol]
    terminals: frozenset[Symbol]
    start: Symbol
    productions: tuple[Production, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.nonterminals, frozenset):
            object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        if not isinstance(self.terminals, frozenset):
            object.__setattr__(self, "terminals", frozenset(self.terminals))
        if not isinstance(self.productions, tuple):
            object.__setattr__(self, "productions", tuple(self.productions))

    def __reduce__(self):
        # Pickle the fields only: lcsg.derivation attaches a compiled view
        # with its search cache on first use, rebuilt wherever it is needed.
        return (Grammar, (self.nonterminals, self.terminals, self.start, self.productions))

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self.nonterminals | self.terminals

    def symbol(self, name: str) -> Symbol:
        """Look up a declared symbol by name; nonterminals win a tie."""
        for s in self.nonterminals:
            if s.name == name:
                return s
        for s in self.terminals:
            if s.name == name:
                return s
        raise KeyError(f"symbol not declared in grammar: {name!r}")

    def string_of(self, names: list[str] | tuple[str, ...]) -> SymbolString:
        return SymbolString(tuple(self.symbol(n) for n in names))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a grammar: violations plus a noncontracting flag."""

    violations: tuple[str, ...]
    noncontracting: bool

    @property
    def is_valid(self) -> bool:
        return not self.violations


class ProductionClass(enum.Enum):
    REGULAR = "REGULAR"
    CONTEXT_FREE = "CONTEXT_FREE"
    LEFT_CS = "LEFT_CS"
    STRICT_CS = "STRICT_CS"
    MONOTONE = "MONOTONE"
    UNRESTRICTED = "UNRESTRICTED"


# Tightest first, as the enum declares them; classify_grammar scans this order.
GRAMMAR_CLASS_ORDER: tuple[ProductionClass, ...] = tuple(ProductionClass)


def _left_cs_defect(lhs: tuple, rhs: tuple, ends_in_nonterminal: bool) -> str | None:
    """The first way ``lhs -> rhs`` misses ``alpha A -> alpha R``, or None."""
    # The only candidate split puts the rewritten nonterminal last.
    if not ends_in_nonterminal:
        return "no_trailing_nonterminal"
    alpha = lhs[:-1]
    if rhs[: len(alpha)] != alpha:
        return "left_context_changed"
    return "empty_remainder" if len(rhs) == len(alpha) else None


def _is_strict_cs_form(lhs: SymbolString, rhs: SymbolString) -> bool:
    for i, s in enumerate(lhs.symbols):
        if not s.is_nonterminal:
            continue
        alpha, beta = lhs[:i], lhs[i + 1:]
        if len(rhs) <= len(alpha) + len(beta):
            continue
        if rhs.startswith(alpha) and rhs.endswith(beta):
            return True
    return False


def classify_production(p: Production) -> frozenset[ProductionClass]:
    """Return every form template the production satisfies."""
    classes = {ProductionClass.UNRESTRICTED}
    if len(p.rhs) >= len(p.lhs):
        classes.add(ProductionClass.MONOTONE)
    if len(p.lhs) == 1 and p.lhs[0].is_nonterminal:
        classes.add(ProductionClass.CONTEXT_FREE)
        if len(p.rhs) == 1 and p.rhs[0].is_terminal:
            classes.add(ProductionClass.REGULAR)
        elif (
            len(p.rhs) == 2
            and p.rhs[0].is_terminal
            and p.rhs[1].is_nonterminal
        ):
            classes.add(ProductionClass.REGULAR)
    if _left_cs_defect(p.lhs.symbols, p.rhs.symbols, p.lhs[-1].is_nonterminal) is None:
        classes.add(ProductionClass.LEFT_CS)
    if _is_strict_cs_form(p.lhs, p.rhs):
        classes.add(ProductionClass.STRICT_CS)
    return frozenset(classes)


def classify_grammar(g: Grammar) -> ProductionClass:
    """The tightest class that every production satisfies jointly.

    The scan always returns: every production is ``UNRESTRICTED``.
    """
    per_production = [classify_production(p) for p in g.productions]
    for cls in GRAMMAR_CLASS_ORDER:
        if all(cls in classes for classes in per_production):
            return cls


def _start_on_some_rhs(g: Grammar) -> bool:
    return any(g.start in p.rhs.symbols for p in g.productions)


def validate_grammar(g: Grammar) -> ValidationReport:
    """Check the alphabet invariants and determine noncontraction.

    The report lists every violation: a name shared between the two
    alphabets, a start symbol missing from the nonterminals, or a production
    symbol that is not declared.  Separately, the grammar is noncontracting
    when every production has ``len(rhs) >= len(lhs)``, with the sole
    permitted exception of ``start -> `` empty when the start symbol occurs
    on no right side.
    """
    violations: list[str] = []

    terminal_names = {s.name for s in g.terminals}
    shared = sorted(terminal_names & {s.name for s in g.nonterminals})
    for name in shared:
        violations.append(f"name declared as both terminal and nonterminal: {name}")

    if g.start not in g.nonterminals:
        violations.append(f"start symbol is not a declared nonterminal: {g.start.name}")

    alphabet = g.alphabet
    for i, p in enumerate(g.productions):
        for s in tuple(p.lhs) + tuple(p.rhs):
            if s not in alphabet:
                violations.append(
                    f"production {i} uses undeclared symbol: {s!r}"
                )

    start_on_rhs = _start_on_some_rhs(g)
    noncontracting = True
    for p in g.productions:
        if len(p.rhs) >= len(p.lhs):
            continue
        permitted = (
            len(p.rhs) == 0
            and len(p.lhs) == 1
            and p.lhs[0] == g.start
            and not start_on_rhs
        )
        if not permitted:
            noncontracting = False

    return ValidationReport(tuple(violations), noncontracting)


def is_right_linear(g: Grammar) -> bool:
    """True when every production is ``A -> w`` or ``A -> w B`` with ``w`` terminal."""
    for p in g.productions:
        if len(p.lhs) != 1 or not p.lhs[0].is_nonterminal:
            return False
        body = p.rhs
        if body and body[-1].is_nonterminal:
            body = body[:-1]
        if not body.is_all_terminal():
            return False
    return True
