"""Symbols and symbol strings.

Every grammar-facing module works over the same two value types: ``Symbol``,
a named terminal or nonterminal, and ``SymbolString``, an immutable sequence
of symbols.  The empty ``SymbolString`` is the canonical representation of
the empty string.

Symbols are interned, one live instance per (name, kind), so they compare
and hash by identity.  Identity hashes differ between runs, so no output may
follow the iteration order of a set of symbols or of symbol strings.
"""

from __future__ import annotations

import enum
import threading
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Union, overload


class SymbolKind(enum.Enum):
    TERMINAL = "terminal"
    NONTERMINAL = "nonterminal"


# A module global reads about ten times faster than an Enum class attribute.
_TERMINAL = SymbolKind.TERMINAL


# Reserved by the grammar file format and the trace format.
_RESERVED_NAMES = frozenset({"_", "->", "|"})

# One table per kind, name -> live symbol; weak, so a symbol nothing holds is freed.
_INTERNED = {kind: weakref.WeakValueDictionary() for kind in SymbolKind}
_TERMINALS, _NONTERMINALS = _INTERNED[_TERMINAL], _INTERNED[SymbolKind.NONTERMINAL]
# Makes a miss's setdefault atomic, so two threads never create two instances of one symbol.
_INTERN_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False, init=False)
class Symbol:
    """A single terminal or nonterminal.

    Names must be non-empty, contain no whitespace, and avoid the tokens the
    file formats claim for themselves; a name is checked when first interned.
    Constructing, pickling and copying return the one live instance of a
    (name, kind), so a terminal ``x`` and a nonterminal ``x`` are distinct
    values (grammar validation reports the name collision).
    """

    __slots__ = ("name", "kind", "__weakref__")
    name: str
    kind: SymbolKind

    def __new__(cls, name: str, kind: SymbolKind) -> "Symbol":
        table = _INTERNED.get(kind) if isinstance(kind, SymbolKind) else None
        symbol = None if table is None else table.get(name)
        if symbol is None:
            if not name:
                raise ValueError("symbol name must be non-empty")
            if any(ch.isspace() for ch in name):
                raise ValueError(f"symbol name contains whitespace: {name!r}")
            if name in _RESERVED_NAMES:
                raise ValueError(f"symbol name is reserved: {name!r}")
            if table is None:
                raise ValueError(f"kind must be a SymbolKind, got {kind!r}")
            symbol = object.__new__(cls)
            object.__setattr__(symbol, "name", name)
            object.__setattr__(symbol, "kind", kind)
            with _INTERN_LOCK:
                symbol = table.setdefault(name, symbol)
        return symbol

    def __reduce__(self):
        return (Symbol, (self.name, self.kind))

    @property
    def is_terminal(self) -> bool:
        return self.kind is _TERMINAL

    @property
    def is_nonterminal(self) -> bool:
        return self.kind is not _TERMINAL

    def __repr__(self) -> str:
        tag = "T" if self.is_terminal else "N"
        return f"{self.name}:{tag}"


def terminal(name: str) -> Symbol:
    return _TERMINALS.get(name) or Symbol(name, _TERMINAL)


def nonterminal(name: str) -> Symbol:
    return _NONTERMINALS.get(name) or Symbol(name, SymbolKind.NONTERMINAL)


@dataclass(frozen=True)
class SymbolString:
    """An immutable, hashable sequence of symbols.

    Supports length, indexing, slicing, iteration, and concatenation, which
    is enough for the window arithmetic the derivation engine performs.
    """

    symbols: tuple[Symbol, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        for s in self.symbols:
            if not isinstance(s, Symbol):
                raise ValueError(f"not a Symbol: {s!r}")

    @classmethod
    def _of(cls, symbols: tuple[Symbol, ...]) -> "SymbolString":
        """Wrap a tuple of already-checked symbols, skipping ``__post_init__``.

        Only for tuples cut or joined from existing ``SymbolString``s, whose
        elements were checked when those were built.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "symbols", symbols)
        return s

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    @overload
    def __getitem__(self, index: int) -> Symbol: ...

    @overload
    def __getitem__(self, index: slice) -> "SymbolString": ...

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return SymbolString._of(self.symbols[index])
        return self.symbols[index]

    def __add__(self, other: Union["SymbolString", Iterable[Symbol]]) -> "SymbolString":
        # Only the appended operand is checked; ``self`` was checked when built.
        return SymbolString._of(self.symbols + SymbolString(other).symbols)

    def startswith(self, prefix: "SymbolString") -> bool:
        return self.symbols[: len(prefix)] == prefix.symbols

    def endswith(self, suffix: "SymbolString") -> bool:
        if not suffix.symbols:
            return True
        return self.symbols[-len(suffix.symbols):] == suffix.symbols

    def is_all_terminal(self) -> bool:
        for s in self.symbols:
            if s.kind is not _TERMINAL:
                return False
        return True

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.symbols)

    def __str__(self) -> str:
        return " ".join(s.name for s in self.symbols) if self.symbols else "_"

    def __repr__(self) -> str:
        return f"<{self}>"


def shortlex(w: SymbolString) -> tuple[int, tuple[str, ...]]:
    """The sort key of shortlex order, shorter strings first, then by name.

    The one order in which strings are listed or summed, since set order
    follows identity hashes.
    """
    return (len(w), w.names())


EMPTY = SymbolString()
