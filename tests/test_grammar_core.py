"""Symbols, productions, hierarchy classification, validation, file format."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from lcsg import (
    EMPTY,
    GRAMMAR_CLASS_ORDER,
    Grammar,
    GrammarParseError,
    Production,
    ProductionClass,
    Symbol,
    SymbolString,
    classify_grammar,
    classify_production,
    is_right_linear,
    nonterminal,
    parse_grammar,
    render_grammar,
    terminal,
    validate_grammar,
)
from conftest import load_grammar

a, b, c = terminal("a"), terminal("b"), terminal("c")
A, B, C = nonterminal("A"), nonterminal("B"), nonterminal("C")


def s(*symbols) -> SymbolString:
    return SymbolString(tuple(symbols))


# --- symbols ---


def test_symbol_name_constraints():
    with pytest.raises(ValueError):
        Symbol("", a.kind)
    with pytest.raises(ValueError):
        terminal("a b")
    with pytest.raises(ValueError):
        terminal("\t")
    for reserved in ("_", "->", "|"):
        with pytest.raises(ValueError):
            terminal(reserved)


def test_symbol_equality_includes_kind():
    assert terminal("x") != nonterminal("x")
    assert terminal("x") == terminal("x")


def test_symbol_string_basics():
    w = s(a, A, b)
    assert len(w) == 3
    assert w[1] == A
    assert isinstance(w[0:2], SymbolString)
    assert w[0:2] == s(a, A)
    assert w + (c,) == s(a, A, b, c)
    assert w.names() == ("a", "A", "b")
    assert str(w) == "a A b"
    assert str(EMPTY) == "_"
    assert len(EMPTY) == 0


def test_symbol_string_is_hashable_and_orderable_by_contents():
    assert s(a, b) == SymbolString([a, b])
    assert hash(s(a, b)) == hash(SymbolString((a, b)))


# --- productions ---


def test_production_lhs_must_contain_a_nonterminal():
    with pytest.raises(ValueError):
        Production(EMPTY, s(a))
    with pytest.raises(ValueError):
        Production(s(a, b), s(a))
    Production(s(a, A), s(a, b))  # fine


def test_production_weight_must_be_finite_nonnegative():
    with pytest.raises(ValueError):
        Production(s(A), s(a), weight=-0.5)
    with pytest.raises(ValueError):
        Production(s(A), s(a), weight=float("nan"))
    assert Production(s(A), s(a), weight=2).weight == 2.0


# --- classification ---

ALL = frozenset(ProductionClass)

# one hand label per production of the twelve-production fixture
CLASSIFY12_LABELS = [
    ("A -> a", ALL),
    ("A -> a B", ALL),
    ("A -> B A", ALL - {ProductionClass.REGULAR}),
    ("B -> a b", ALL - {ProductionClass.REGULAR}),
    (
        "a B -> a b",
        frozenset(
            {
                ProductionClass.LEFT_CS,
                ProductionClass.STRICT_CS,
                ProductionClass.MONOTONE,
                ProductionClass.UNRESTRICTED,
            }
        ),
    ),
    (
        "a A -> a b a",
        frozenset(
            {
                ProductionClass.LEFT_CS,
                ProductionClass.STRICT_CS,
                ProductionClass.MONOTONE,
                ProductionClass.UNRESTRICTED,
            }
        ),
    ),
    (
        "C B -> B C",
        frozenset({ProductionClass.MONOTONE, ProductionClass.UNRESTRICTED}),
    ),
    (
        "A B -> B A",
        frozenset({ProductionClass.MONOTONE, ProductionClass.UNRESTRICTED}),
    ),
    ("A B -> a", frozenset({ProductionClass.UNRESTRICTED})),
    (
        "a A b -> a c b",
        frozenset(
            {
                ProductionClass.STRICT_CS,
                ProductionClass.MONOTONE,
                ProductionClass.UNRESTRICTED,
            }
        ),
    ),
    (
        "a B c -> a b c",
        frozenset(
            {
                ProductionClass.STRICT_CS,
                ProductionClass.MONOTONE,
                ProductionClass.UNRESTRICTED,
            }
        ),
    ),
    (
        "B A -> B a A",
        frozenset(
            {
                ProductionClass.LEFT_CS,
                ProductionClass.STRICT_CS,
                ProductionClass.MONOTONE,
                ProductionClass.UNRESTRICTED,
            }
        ),
    ),
]


def test_classify12_fixture_matches_hand_labels():
    g = load_grammar("classify12.grammar")
    assert len(g.productions) == 12
    for p, (text, expected) in zip(g.productions, CLASSIFY12_LABELS):
        assert f"{p.lhs} -> {p.rhs}" == text
        assert classify_production(p) == expected, text
    assert classify_grammar(g) is ProductionClass.UNRESTRICTED


def test_lambda_rhs_is_context_free_only():
    assert classify_production(Production(s(A), EMPTY)) == frozenset(
        {ProductionClass.CONTEXT_FREE, ProductionClass.UNRESTRICTED}
    )
    # erasure with context on the left is not any context-sensitive template
    assert classify_production(Production(s(a, A), EMPTY)) == frozenset(
        {ProductionClass.UNRESTRICTED}
    )


def test_grammar_classification_is_the_tightest_shared_class(abc, chain):
    assert classify_grammar(abc) is ProductionClass.MONOTONE
    assert classify_grammar(chain) is ProductionClass.LEFT_CS
    assert classify_grammar(load_grammar("loop.grammar")) is ProductionClass.REGULAR
    assert (
        classify_grammar(load_grammar("crossserial.grammar"))
        is ProductionClass.MONOTONE
    )


def test_class_order_is_the_hierarchy():
    assert GRAMMAR_CLASS_ORDER == (
        ProductionClass.REGULAR,
        ProductionClass.CONTEXT_FREE,
        ProductionClass.LEFT_CS,
        ProductionClass.STRICT_CS,
        ProductionClass.MONOTONE,
        ProductionClass.UNRESTRICTED,
    )


terminals_st = st.sampled_from([a, b, c])
nonterminals_st = st.sampled_from([A, B, C])
symbols_st = st.one_of(terminals_st, nonterminals_st)


@given(
    lhs_prefix=st.lists(symbols_st, max_size=3),
    head=nonterminals_st,
    rhs=st.lists(symbols_st, min_size=1, max_size=4),
)
def test_classification_is_upward_closed_for_nonempty_rhs(lhs_prefix, head, rhs):
    p = Production(s(*lhs_prefix, head), s(*rhs))
    classes = classify_production(p)
    order = list(GRAMMAR_CLASS_ORDER)
    for cls in classes:
        for later in order[order.index(cls) + 1:]:
            assert later in classes, (p, cls, later)


@given(
    alpha=st.lists(symbols_st, max_size=3),
    head=nonterminals_st,
    rest=st.lists(symbols_st, min_size=1, max_size=3),
)
def test_left_context_preserving_decomposition_always_classifies(alpha, head, rest):
    # alpha A -> alpha R with R non-empty is the defining template
    p = Production(s(*alpha, head), s(*alpha, *rest))
    assert ProductionClass.LEFT_CS in classify_production(p)


# --- validation ---


def test_validate_accepts_the_fixtures():
    for name in ("abc.grammar", "crossserial.grammar", "chain.grammar", "loop.grammar"):
        report = validate_grammar(load_grammar(name))
        assert report.is_valid, name
        assert report.noncontracting, name


def test_validate_reports_name_collisions_and_undeclared_symbols():
    g = Grammar(
        nonterminals=frozenset({A, nonterminal("a")}),
        terminals=frozenset({a}),
        start=A,
        productions=(Production(s(A), s(a, B)),),
    )
    report = validate_grammar(g)
    assert not report.is_valid
    assert any("both terminal and nonterminal" in v for v in report.violations)
    assert any("undeclared symbol" in v for v in report.violations)


def test_validate_reports_missing_start():
    g = Grammar(frozenset({A}), frozenset({a}), B, (Production(s(A), s(a)),))
    report = validate_grammar(g)
    assert any("start symbol" in v for v in report.violations)


def test_noncontracting_permits_only_guarded_start_erasure():
    erasing = Grammar(
        frozenset({A}), frozenset({a}), A,
        (Production(s(A), s(a)), Production(s(A), EMPTY)),
    )
    assert validate_grammar(erasing).noncontracting

    # once the start symbol reappears on a right side the exemption is gone
    recursive = Grammar(
        frozenset({A}), frozenset({a}), A,
        (Production(s(A), s(a, A)), Production(s(A), EMPTY)),
    )
    assert not validate_grammar(recursive).noncontracting

    shrinking = Grammar(
        frozenset({A, B}), frozenset({a}), A,
        (Production(s(A, B), s(a)),),
    )
    assert not validate_grammar(shrinking).noncontracting


def test_is_right_linear():
    assert is_right_linear(load_grammar("loop.grammar"))
    assert not is_right_linear(load_grammar("abc.grammar"))
    assert not is_right_linear(
        Grammar(frozenset({A, B}), frozenset({a}), A, (Production(s(A), s(B, a)),))
    )


# --- file format ---


def test_parse_render_round_trip_on_fixtures():
    for name in (
        "abc.grammar",
        "crossserial.grammar",
        "chain.grammar",
        "loop.grammar",
        "classify12.grammar",
    ):
        g = load_grammar(name)
        rendered = render_grammar(g)
        assert parse_grammar(rendered) == g, name
        assert render_grammar(parse_grammar(rendered)) == rendered, name


def test_parse_reads_weights_and_lambda():
    g = parse_grammar(
        "start: S\nterminals: a\nnonterminals: S\nS -> a S p=0.25\nS -> _ p=0.75\n"
    )
    assert g.productions[0].weight == 0.25
    assert g.productions[1].rhs == EMPTY


@pytest.mark.parametrize(
    "text",
    [
        "terminals: a\nnonterminals: S\nS -> a\n",  # no start header
        "start: S\nterminals: a\nnonterminals: S\nS -> q\n",  # undeclared symbol
        "start: S\nterminals: a\nnonterminals: S\nS -> a p=oops\n",  # bad weight
        "start: S\nterminals: a\nnonterminals: S\n-> a\n",  # empty lhs
        "start: S\nstart: S\nterminals: a\nnonterminals: S\nS -> a\n",  # duplicate header
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(GrammarParseError):
        parse_grammar(text)


def test_parse_error_carries_a_line_number():
    try:
        parse_grammar("start: S\nterminals: a\nnonterminals: S\nS -> q\n")
    except GrammarParseError as e:
        assert "4" in str(e)
    else:
        pytest.fail("expected GrammarParseError")


def test_render_is_deterministic(abc):
    rendered = render_grammar(abc)
    assert render_grammar(parse_grammar(rendered)) == rendered
    # alphabets come out sorted regardless of declaration order
    assert "nonterminals: B C S" in rendered


HEADER = "start: S\nterminals: a\nnonterminals: S\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("start:\nterminals: a\nnonterminals: S\nS -> a\n", 1, "exactly one symbol"),
        ("start: S T\nterminals: a\nnonterminals: S T\nS -> a\n", 1, "exactly one symbol"),
        ("start: S\nterminals: a a\nnonterminals: S\nS -> a\n", 2, "duplicate symbol declaration: a"),
        ("start: S\nterminals: a\nnonterminals: S a\nS -> a\n", 3, "duplicate symbol declaration: a"),
        ("start: S\nterminals: a ->\nnonterminals: S\nS -> a\n", 2, "reserved"),
        ("start: S\nterminals: a\nnonterminals: S |\nS -> a\n", 3, "reserved"),
        (HEADER + "S a\n", 4, "exactly one '->'"),
        (HEADER + "S -> a -> a\n", 4, "exactly one '->'"),
        (HEADER + "S | S -> a\n", 4, "'|' may only appear on the rhs"),
        (HEADER + "S -> a |\n", 4, "empty rhs"),
        (HEADER + "S -> a _\n", 4, "'_' must stand alone"),
        (HEADER + "S -> a\na -> a S\n", 5, "lhs needs a nonterminal"),
        (HEADER + "S -> a p=-1\n", 4, "weight must be finite and >= 0"),
        ("start: T\nterminals: a\nnonterminals: S\nS -> a\n", 1, "start symbol is undeclared: T"),
    ],
)
def test_parse_refusals_name_their_line(text, line, message):
    with pytest.raises(GrammarParseError, match=re.escape(message)) as info:
        parse_grammar(text)
    assert info.value.line == line


def test_alternatives_on_one_line_keep_their_own_weights():
    g = parse_grammar(
        "start: S\nterminals: a b\nnonterminals: S\nS -> a S p=2 | b | _ p=0.5\n"
    )
    S = nonterminal("S")
    assert [(p.lhs, p.rhs, p.weight) for p in g.productions] == [
        (s(S), s(a, S), 2.0),
        (s(S), s(b), None),
        (s(S), EMPTY, 0.5),
    ]
    rendered = render_grammar(g)
    assert rendered.splitlines()[3:] == ["S -> a S p=2.0", "S -> b", "S -> _ p=0.5"]
    assert parse_grammar(rendered) == g
