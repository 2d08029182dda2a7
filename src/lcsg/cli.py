"""Command-line surface.

One subcommand per library operation:

    validate   check a grammar file, report violations
    classify   per-production and whole-grammar classification
    derive     list the one-step successors of a sentential form
    enumerate  all terminal strings up to a length bound
    member     bounded membership with a derivation trace
    sample     sample a weighted derivation
    generate   run a predictor's generation loop
    extract    generate, then extract and check the production sequence
    induce     write a finite-state predictor down as a grammar
    equiv      compare two grammars' languages up to a bound

Exit codes: 0 success or positive result; 1 negative result (non-member,
counterexample, failed form check); 2 usage or input error; 3 fuel or
budget exhausted (indeterminate).  Commands that draw randomness
(``sample``, ``generate``, ``extract``) require an explicit ``--seed``;
outputs are byte-identical across reruns with the same inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from .autoregressive import GenerationRecord, Predictor, generate
from .bridge import (
    StateBudgetExceededError,
    build_trace_report,
    check_weak_equivalence,
    induce_grammar,
)
from .derivation import (
    DEFAULT_FUEL,
    FuelExhaustedError,
    derives_bounded,
    enumerate_language,
    successors,
)
from .grammar import GRAMMAR_CLASS_ORDER, classify_grammar, classify_production, validate_grammar
from .grammar_io import parse_grammar, render_grammar
from .predictors import (
    grammar_predictor,
    ngram_train,
    read_corpus,
    read_vocab,
    toy_attention_predictor,
)
from .stochastic import DeadEndError, WeightedGrammar, sample_derivation
from .symbols import SymbolString, terminal
from .traces import serialize_trace

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _load_grammar(path: str):
    return parse_grammar(Path(path).read_text())


def _build_predictor(args: argparse.Namespace) -> Predictor:
    if args.predictor == "grammar":
        if args.grammar is None:
            raise ValueError("--predictor grammar needs -g/--grammar")
        wg = WeightedGrammar.from_grammar(_load_grammar(args.grammar))
        return grammar_predictor(wg)
    if args.predictor == "ngram":
        if args.corpus is None:
            raise ValueError("--predictor ngram needs --corpus")
        corpus = read_corpus(Path(args.corpus).read_text())
        vocab = read_vocab(Path(args.vocab).read_text()) if args.vocab else None
        return ngram_train(corpus, args.k, vocab)
    if args.predictor == "toy_attention":
        if args.vocab is None:
            raise ValueError("--predictor toy_attention needs --vocab")
        vocab = read_vocab(Path(args.vocab).read_text())
        return toy_attention_predictor(args.weights_seed, args.embed_dim, vocab)
    raise ValueError(f"unknown predictor family {args.predictor!r}")


def _parse_word(grammar, text: str) -> SymbolString:
    try:
        return grammar.string_of(tuple(text.split()))
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


# ---------------------------------------------------------------------------
# command bodies: each returns (stdout text, exit code)


def _cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    report = validate_grammar(_load_grammar(args.grammar))
    lines = [f"violation: {v}" for v in report.violations]
    flag = "true" if report.noncontracting else "false"
    if report.is_valid:
        lines.append(f"valid noncontracting={flag}")
        return "\n".join(lines) + "\n", EXIT_OK
    lines.append("invalid")
    return "\n".join(lines) + "\n", EXIT_NEGATIVE


def _cmd_classify(args: argparse.Namespace) -> tuple[str, int]:
    g = _load_grammar(args.grammar)
    lines = []
    for i, p in enumerate(g.productions):
        classes = classify_production(p)
        names = " ".join(c.name for c in GRAMMAR_CLASS_ORDER if c in classes)
        lines.append(f"production {i}: {names}")
    lines.append(f"grammar: {classify_grammar(g).name}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_derive(args: argparse.Namespace) -> tuple[str, int]:
    g = _load_grammar(args.grammar)
    form = _parse_word(g, args.word)
    lines = [
        f"prod={step.production_index} pos={step.position} form={step.after}"
        for step in successors(form, g)
    ]
    return ("\n".join(lines) + "\n") if lines else "", EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    g = _load_grammar(args.grammar)
    language = enumerate_language(g, args.max_len, args.fuel)
    ordered = sorted(language, key=lambda w: (len(w), w.names()))
    lines = [str(w) for w in ordered]
    return ("\n".join(lines) + "\n") if lines else "", EXIT_OK


def _cmd_member(args: argparse.Namespace) -> tuple[str, int]:
    g = _load_grammar(args.grammar)
    word = _parse_word(g, args.word)
    trace = derives_bounded(g, word, args.fuel)
    if trace is None:
        print("non-member", file=sys.stderr)
        return "", EXIT_NEGATIVE
    return serialize_trace(trace), EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> tuple[str, int]:
    wg = WeightedGrammar.from_grammar(_load_grammar(args.grammar))
    sampled = sample_derivation(wg, args.seed, args.max_steps)
    code = EXIT_EXHAUSTED if sampled.truncated else EXIT_OK
    if sampled.truncated:
        print(f"truncated after {args.max_steps} steps", file=sys.stderr)
    return serialize_trace(sampled.trace), code


def _generation_run(args: argparse.Namespace) -> GenerationRecord:
    """Build the predictor ``args`` names and run its generation loop."""
    return generate(
        _build_predictor(args),
        SymbolString(terminal(name) for name in args.prompt.split()),
        args.policy,
        args.seed,
        args.max_t,
        window=args.window,
    )


def _cmd_generate(args: argparse.Namespace) -> tuple[str, int]:
    return serialize_trace(_generation_run(args)), EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> tuple[str, int]:
    report = build_trace_report(_generation_run(args))
    code = EXIT_OK if report.conforming else EXIT_NEGATIVE
    return serialize_trace(report), code


def _cmd_induce(args: argparse.Namespace) -> tuple[str, int]:
    predictor = _build_predictor(args)
    wg = induce_grammar(
        predictor,
        max_context_len=args.max_context_len,
        state_budget=args.state_budget,
    )
    return render_grammar(wg.grammar), EXIT_OK


def _cmd_equiv(args: argparse.Namespace) -> tuple[str, int]:
    g1 = _load_grammar(args.grammar)
    g2 = _load_grammar(args.grammar2)
    verdict = check_weak_equivalence(g1, g2, args.max_len, args.fuel)
    if verdict.equivalent:
        return f"equivalent up to length {verdict.max_len}\n", EXIT_OK
    return f"counterexample: {verdict.counterexample}\n", EXIT_NEGATIVE


_COMMANDS: dict[str, Callable[[argparse.Namespace], tuple[str, int]]] = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "derive": _cmd_derive,
    "enumerate": _cmd_enumerate,
    "member": _cmd_member,
    "sample": _cmd_sample,
    "generate": _cmd_generate,
    "extract": _cmd_extract,
    "induce": _cmd_induce,
    "equiv": _cmd_equiv,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcsg",
        description="grammar derivation, next-token generation, and the bridge between them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def grammar_arg(p):
        p.add_argument("-g", "--grammar", required=True, help="grammar file")

    def fuel_arg(p):
        p.add_argument(
            "--fuel",
            type=int,
            default=DEFAULT_FUEL,
            help=f"search expansion budget (default {DEFAULT_FUEL})",
        )

    def output_arg(p):
        p.add_argument("-o", "--output", help="write output to this file instead of stdout")

    def predictor_args(p):
        p.add_argument(
            "--predictor",
            choices=("grammar", "ngram", "toy_attention"),
            default="grammar",
            help="predictor family (default grammar)",
        )
        p.add_argument("-g", "--grammar", help="grammar file (grammar family)")
        p.add_argument("--corpus", help="training corpus file (ngram family)")
        p.add_argument("--vocab", help="vocabulary file, one token per line")
        p.add_argument("-k", type=int, default=2, help="context length (default 2)")
        p.add_argument(
            "--embed-dim", type=int, default=8, help="embedding width (default 8)"
        )
        p.add_argument(
            "--weights-seed",
            type=int,
            default=0,
            help="seed for attention weights (default 0)",
        )

    p = sub.add_parser("validate", help="check a grammar file")
    grammar_arg(p)
    output_arg(p)

    p = sub.add_parser("classify", help="classify productions and grammar")
    grammar_arg(p)
    output_arg(p)

    p = sub.add_parser("derive", help="one-step successors of a sentential form")
    grammar_arg(p)
    p.add_argument("-w", "--word", required=True, help="sentential form, space-separated")
    output_arg(p)

    p = sub.add_parser("enumerate", help="terminal strings up to a length bound")
    grammar_arg(p)
    p.add_argument("--max-len", type=int, default=6, help="length bound (default 6)")
    fuel_arg(p)
    output_arg(p)

    p = sub.add_parser("member", help="bounded membership with derivation trace")
    grammar_arg(p)
    p.add_argument("-w", "--word", required=True, help="terminal string, space-separated")
    fuel_arg(p)
    output_arg(p)

    p = sub.add_parser("sample", help="sample one weighted derivation")
    grammar_arg(p)
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    p.add_argument(
        "--max-steps", type=int, default=1000, help="step budget (default 1000)"
    )
    output_arg(p)

    for name, help_text in (
        ("generate", "run a predictor's generation loop"),
        ("extract", "generate, then extract and check productions"),
    ):
        p = sub.add_parser(name, help=help_text)
        predictor_args(p)
        p.add_argument("--prompt", default="", help="prompt tokens (default empty)")
        p.add_argument(
            "--policy",
            choices=("greedy", "sample"),
            default="greedy",
            help="decoding policy (default greedy)",
        )
        p.add_argument("--seed", type=int, required=True, help="random seed (required)")
        p.add_argument(
            "--max-t", type=int, default=32, help="step budget (default 32)"
        )
        p.add_argument("--window", type=int, help="sliding context window (default unbounded)")
        output_arg(p)

    p = sub.add_parser("induce", help="write a finite-state predictor down as a grammar")
    predictor_args(p)
    p.add_argument(
        "--max-context-len",
        type=int,
        default=8,
        help="exploration horizon in tokens (default 8)",
    )
    p.add_argument(
        "--state-budget", type=int, default=10_000, help="state cap (default 10000)"
    )
    output_arg(p)

    p = sub.add_parser("equiv", help="compare two grammars up to a length bound")
    grammar_arg(p)
    p.add_argument("--grammar2", required=True, help="second grammar file")
    p.add_argument("--max-len", type=int, default=6, help="length bound (default 6)")
    fuel_arg(p)
    output_arg(p)

    return parser


_PARSER = _build_parser()


def dispatch(argv: Sequence[str]) -> int:
    """Run one command; returns the exit code without exiting."""
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE

    try:
        text, code = _COMMANDS[args.command](args)
        if args.output is not None:
            Path(args.output).write_text(text)
    except (FuelExhaustedError, StateBudgetExceededError) as exc:
        print(f"exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (DeadEndError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.output is None:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
