"""Line-oriented grammar file format.

The format is UTF-8 text, one declaration or production per line::

    # anbncn
    start: S
    terminals: a b c
    nonterminals: S B C
    S -> a S B C | a B C
    C B -> B C
    a B -> a b
    b B -> b b
    b C -> b c
    c C -> c c

Symbols are whitespace-separated and may be multi-character.  ``_`` denotes
the empty right side.  A production may carry a weight as a trailing
``p=<float>``; absent weights default to 1.0 wherever weights are needed.
Alternatives for one left side may share a line via ``|``.

``parse_grammar`` and ``render_grammar`` are mutual inverses on valid
grammars: ``parse_grammar(render_grammar(g)) == g``.  So ``render_grammar``
refuses, with ``ValueError``, a symbol name that the parser would read as
syntax: one that begins with ``#`` (a comment), ``start:``, ``terminals:``
or ``nonterminals:`` (a declaration) where it begins a line, and one of the
form ``p=<text>`` (a weight) where it ends a right side.
"""

from __future__ import annotations

import re

from .grammar import Grammar, Production
from .symbols import Symbol, SymbolString, nonterminal, terminal

_WEIGHT_RE = re.compile(r"^p=(.+)$")


class GrammarParseError(ValueError):
    """A syntax or declaration error, located by line and column."""

    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}"
        if column is not None:
            where += f", column {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


def _tokens_with_columns(text: str) -> list[tuple[str, int]]:
    out = []
    cursor = 0
    for tok in text.split():
        cursor = text.index(tok, cursor)
        out.append((tok, cursor + 1))
        cursor += len(tok)
    return out


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text, raising :class:`GrammarParseError` on any defect."""
    start_name: str | None = None
    start_line = 0
    # Each alphabet's names, with the line that declares each.
    declared: dict[str, dict[str, int]] = {"terminals:": {}, "nonterminals:": {}}
    production_lines: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("start:"):
            if start_name is not None:
                raise GrammarParseError("duplicate start declaration", lineno)
            names = line[len("start:"):].split()
            if len(names) != 1:
                raise GrammarParseError("start takes exactly one symbol", lineno)
            start_name, start_line = names[0], lineno
        elif (head := line[: line.find(":") + 1]) in declared:
            for name in line[len(head):].split():
                if any(name in names for names in declared.values()):
                    raise GrammarParseError(f"duplicate symbol declaration: {name}", lineno)
                declared[head][name] = lineno
        else:
            production_lines.append((lineno, raw))

    symbols: dict[str, Symbol] = {}
    for head, make in (("terminals:", terminal), ("nonterminals:", nonterminal)):
        for name, lineno in declared[head].items():
            try:
                symbols[name] = make(name)
            except ValueError as exc:
                raise GrammarParseError(str(exc), lineno) from exc

    def resolve(name: str, lineno: int, column: int) -> Symbol:
        try:
            return symbols[name]
        except KeyError:
            raise GrammarParseError(f"undeclared symbol: {name}", lineno, column) from None

    productions: list[Production] = []
    for lineno, raw in production_lines:
        tokens = _tokens_with_columns(raw)
        arrows = [i for i, (tok, _) in enumerate(tokens) if tok == "->"]
        if len(arrows) != 1:
            raise GrammarParseError("expected exactly one '->'", lineno)
        split = arrows[0]
        lhs_tokens, rhs_tokens = tokens[:split], tokens[split + 1:]
        if not lhs_tokens:
            raise GrammarParseError("empty production lhs", lineno)
        if any(tok == "|" for tok, _ in lhs_tokens):
            raise GrammarParseError("'|' may only appear on the rhs", lineno)
        lhs = SymbolString(tuple(resolve(t, lineno, c) for t, c in lhs_tokens))

        alternatives: list[list[tuple[str, int]]] = [[]]
        for tok, col in rhs_tokens:
            if tok == "|":
                alternatives.append([])
            else:
                alternatives[-1].append((tok, col))

        for alt in alternatives:
            weight: float | None = None
            if alt and (m := _WEIGHT_RE.match(alt[-1][0])):
                try:
                    weight = float(m.group(1))
                except ValueError:
                    raise GrammarParseError(
                        f"bad weight: {alt[-1][0]}", lineno, alt[-1][1]
                    ) from None
                alt = alt[:-1]
            if not alt:
                raise GrammarParseError(
                    "empty rhs (write _ for the empty string)", lineno
                )
            if len(alt) == 1 and alt[0][0] == "_":
                rhs = SymbolString()
            elif any(tok == "_" for tok, _ in alt):
                raise GrammarParseError("'_' must stand alone on the rhs", lineno)
            else:
                rhs = SymbolString(tuple(resolve(t, lineno, c) for t, c in alt))
            try:
                productions.append(Production(lhs, rhs, weight))
            except ValueError as exc:
                raise GrammarParseError(str(exc), lineno) from exc

    if start_name is None:
        raise GrammarParseError("missing start declaration", 1)
    if start_name not in symbols:
        raise GrammarParseError(f"start symbol is undeclared: {start_name}", start_line)

    return Grammar(
        nonterminals=frozenset(symbols[n] for n in declared["nonterminals:"]),
        terminals=frozenset(symbols[n] for n in declared["terminals:"]),
        start=symbols[start_name],
        productions=tuple(productions),
    )


def render_grammar(g: Grammar) -> str:
    """Render a grammar in the file format, deterministically.

    Alphabets are emitted in sorted name order and productions one per line
    in grammar order, so identical grammars always render identically.  A
    symbol name the parser would read as syntax raises ``ValueError``.
    """
    symbols = {g.start, *g.alphabet, *(s for p in g.productions for s in (*p.lhs, *p.rhs))}
    line_starts = ("#", "start:", "terminals:", "nonterminals:")
    for name in sorted(s.name for s in symbols):
        if name.startswith(line_starts) or _WEIGHT_RE.match(name):
            raise ValueError(f"symbol name {name!r} collides with the grammar file syntax")
    lines = [f"start: {g.start.name}"]
    lines.append(("terminals: " + " ".join(sorted(s.name for s in g.terminals))).rstrip())
    lines.append(
        ("nonterminals: " + " ".join(sorted(s.name for s in g.nonterminals))).rstrip()
    )
    lines.extend(str(p) for p in g.productions)
    return "\n".join(lines) + "\n"
