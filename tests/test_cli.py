"""Exit codes and output of every CLI command, driven through dispatch()."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys

import pytest

from lcsg import DerivationTrace, GenerationRecord, TraceReport, parse_trace
from lcsg.cli import dispatch
from conftest import DATA

ABC = str(DATA / "abc.grammar")
CHAIN = str(DATA / "chain.grammar")
LOOP = str(DATA / "loop.grammar")
CLASSIFY12 = str(DATA / "classify12.grammar")
CORPUS = str(DATA / "corpus_abab.txt")
VOCAB = str(DATA / "vocab_ab.txt")


def run(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate / classify ---


def test_validate_ok(capsys):
    code, out, _ = run(["validate", "-g", ABC], capsys)
    assert code == 0
    assert out == "valid noncontracting=true\n"


def test_validate_reports_contraction(tmp_path, capsys):
    f = tmp_path / "shrink.grammar"
    f.write_text("start: S\nterminals: a\nnonterminals: S\nS -> a S\na S -> a\n")
    code, out, _ = run(["validate", "-g", str(f)], capsys)
    assert code == 0
    assert out == "valid noncontracting=false\n"


def test_validate_rejects_a_terminal_start_symbol(tmp_path, capsys):
    f = tmp_path / "terminal_start.grammar"
    f.write_text("start: a\nterminals: a\nnonterminals: S\nS -> a\n")
    code, out, _ = run(["validate", "-g", str(f)], capsys)
    assert code == 1
    assert out.splitlines()[-1] == "invalid"


def test_validate_parse_failure_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "broken.grammar"
    f.write_text("start: S\nterminals: a\nnonterminals: S\nS -> q\n")
    code, _, err = run(["validate", "-g", str(f)], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_classify_lists_productions_then_the_grammar(capsys):
    code, out, _ = run(["classify", "-g", CLASSIFY12], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert lines[0] == (
        "production 0: REGULAR CONTEXT_FREE LEFT_CS STRICT_CS MONOTONE UNRESTRICTED"
    )
    assert lines[8] == "production 8: UNRESTRICTED"
    assert lines[-1] == "grammar: UNRESTRICTED"


def test_classify_abc(capsys):
    code, out, _ = run(["classify", "-g", ABC], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "grammar: MONOTONE"


# --- derive / enumerate / member ---


def test_derive_lists_one_step_rewrites(capsys):
    code, out, _ = run(["derive", "-g", ABC, "-w", "S"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "prod=0 pos=0 form=a S B C",
        "prod=1 pos=0 form=a B C",
    ]


def test_enumerate_is_shortlex_sorted(capsys):
    code, out, _ = run(["enumerate", "-g", ABC, "--max-len", "9"], capsys)
    assert code == 0
    assert out.splitlines() == ["a b c", "a a b b c c", "a a a b b b c c c"]


def test_enumerate_fuel_exhaustion(capsys):
    code, _, err = run(["enumerate", "-g", ABC, "--max-len", "9", "--fuel", "3"], capsys)
    assert code == 3
    assert err.startswith("exhausted:")


def test_member_prints_a_parseable_trace(capsys):
    code, out, _ = run(["member", "-g", ABC, "-w", "a a b b c c"], capsys)
    assert code == 0
    trace = parse_trace(out)
    assert isinstance(trace, DerivationTrace)
    assert str(trace.final) == "a a b b c c"


def test_member_negative(capsys):
    code, out, err = run(["member", "-g", ABC, "-w", "a b"], capsys)
    assert code == 1
    assert out == ""
    assert "non-member" in err


def test_member_unknown_symbol_is_a_usage_error(capsys):
    code, _, err = run(["member", "-g", ABC, "-w", "z"], capsys)
    assert code == 2
    assert "not declared" in err


# --- sample ---


def test_sample_prints_a_trace(capsys):
    code, out, _ = run(["sample", "-g", LOOP, "--seed", "0"], capsys)
    assert code == 0
    assert str(parse_trace(out).final) == "b"


def test_sample_requires_a_seed(capsys):
    assert run(["sample", "-g", LOOP], capsys)[0] == 2


def test_sample_truncation_exhausts(tmp_path, capsys):
    f = tmp_path / "forever.grammar"
    f.write_text("start: S\nterminals: a\nnonterminals: S\nS -> a S\n")
    code, _, err = run(
        ["sample", "-g", str(f), "--seed", "7", "--max-steps", "5"], capsys
    )
    assert code == 3
    assert "truncated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-g", LOOP, "--max-len", "-2"],
        ["sample", "-g", LOOP, "--seed", "0", "--max-steps", "-1"],
        ["member", "-g", LOOP, "-w", "b", "--fuel", "-1"],
    ],
)
def test_negative_bounds_steps_and_fuel_are_usage_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be >= 0" in err


def test_sample_names_the_first_nonterminal_without_weight_at_every_hash_seed(tmp_path):
    f = tmp_path / "zero.grammar"
    f.write_text(
        "start: S\nterminals: a\nnonterminals: S A B C D E F\nS -> a\n"
        + "".join(f"{nt} -> a p=0\n" for nt in "ABCDEF")
    )
    for seed in ("0", "1", "12345"):
        proc = subprocess.run(
            [sys.executable, "-m", "lcsg.cli", "sample", "-g", str(f), "--seed", "0"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: no positive weight rewrites A\n"
        ), seed


# --- generate / extract ---


def test_generate_with_the_grammar_predictor(capsys):
    code, out, _ = run(
        ["generate", "-g", CHAIN, "--prompt", "a", "--seed", "0"], capsys
    )
    assert code == 0
    rec = parse_trace(out)
    assert isinstance(rec, GenerationRecord)
    assert str(rec.final) == "a b c"
    assert rec.termination == "END_sampled"


def test_generate_with_the_ngram_predictor(capsys):
    code, out, _ = run(
        [
            "generate", "--predictor", "ngram", "--corpus", CORPUS, "--vocab", VOCAB,
            "-k", "1", "--policy", "sample", "--seed", "5",
        ],
        capsys,
    )
    assert code == 0
    assert isinstance(parse_trace(out), GenerationRecord)


def test_generate_with_the_attention_predictor(capsys):
    code, out, _ = run(
        [
            "generate", "--predictor", "toy_attention", "--vocab", VOCAB,
            "--embed-dim", "4", "--weights-seed", "3", "--policy", "sample",
            "--seed", "1", "--max-t", "4",
        ],
        capsys,
    )
    assert code == 0
    rec = parse_trace(out)
    assert len(rec.steps) <= 4


def test_generate_grammar_family_needs_a_grammar(capsys):
    code, _, err = run(["generate", "--seed", "0"], capsys)
    assert code == 2
    assert "needs -g" in err


@pytest.mark.parametrize(
    "family, flag", [("ngram", "--corpus"), ("toy_attention", "--vocab")]
)
def test_generate_families_need_their_inputs(family, flag, capsys):
    code, _, err = run(["generate", "--predictor", family, "--seed", "0"], capsys)
    assert code == 2
    assert f"--predictor {family} needs {flag}" in err


def test_extract_emits_a_conforming_report(capsys):
    code, out, _ = run(
        [
            "extract", "--predictor", "ngram", "--corpus", CORPUS, "--vocab", VOCAB,
            "-k", "1", "--policy", "sample", "--seed", "11",
        ],
        capsys,
    )
    assert code == 0
    report = parse_trace(out)
    assert isinstance(report, TraceReport)
    assert report.conforming
    assert report.replay_result is not None


def test_extract_refuses_windowed_runs(capsys):
    code, _, err = run(
        [
            "extract", "--predictor", "ngram", "--corpus", CORPUS, "--vocab", VOCAB,
            "-k", "1", "--seed", "0", "--window", "1", "--max-t", "6",
        ],
        capsys,
    )
    assert code == 2
    assert "error:" in err


# --- induce / equiv ---


def test_induce_writes_the_bigram_grammar(capsys):
    code, out, _ = run(
        [
            "induce", "--predictor", "ngram", "--corpus", CORPUS, "--vocab", VOCAB,
            "-k", "1", "--max-context-len", "6",
        ],
        capsys,
    )
    assert code == 0
    assert out == (
        "start: B\n"
        "terminals: a b\n"
        "nonterminals: B s_BOS s_a s_b\n"
        "B -> s_BOS p=1.0\n"
        "s_BOS -> a s_a p=1.0\n"
        "s_a -> b s_b p=1.0\n"
        "s_b -> a s_a p=0.5\n"
        "s_b -> _ p=0.5\n"
    )


def test_induce_refuses_infinite_state_families(capsys):
    code, _, err = run(
        ["induce", "--predictor", "toy_attention", "--vocab", VOCAB], capsys
    )
    assert code == 2
    assert "infinite-state" in err


def test_induce_refuses_a_token_that_would_render_as_a_weight(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a p=2\np=2 a\n")
    code, out, err = run(["induce", "--predictor", "ngram", "--corpus", str(corpus)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: symbol name 'p=2' collides with the grammar file syntax\n"


def test_induce_state_budget_exhausts(capsys):
    code, _, err = run(
        [
            "induce", "--predictor", "ngram", "--corpus", CORPUS, "--vocab", VOCAB,
            "-k", "1", "--state-budget", "2",
        ],
        capsys,
    )
    assert code == 3
    assert err.startswith("exhausted:")


def test_equiv_positive_and_negative(tmp_path, capsys):
    code, out, _ = run(["equiv", "-g", ABC, "--grammar2", ABC, "--max-len", "7"], capsys)
    assert code == 0
    assert "equivalent up to length 7" in out

    other = tmp_path / "other.grammar"
    other.write_text(
        "start: S\nterminals: a b c\nnonterminals: S\nS -> a b c\nS -> a a\n"
    )
    code, out, _ = run(["equiv", "-g", ABC, "--grammar2", str(other), "--max-len", "6"], capsys)
    assert code == 1
    assert out == "counterexample: a a\n"


def test_equiv_alphabet_mismatch(tmp_path, capsys):
    other = tmp_path / "mismatch.grammar"
    other.write_text("start: S\nterminals: q\nnonterminals: S\nS -> q\n")
    code, _, err = run(["equiv", "-g", ABC, "--grammar2", str(other)], capsys)
    assert code == 2
    assert "error:" in err


# --- shared behavior ---


def test_unknown_flag_is_a_usage_error(capsys):
    assert run(["enumerate", "-g", ABC, "--frobnicate"], capsys)[0] == 2


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(["validate", "-g", "/nonexistent.grammar"], capsys)
    assert code == 2
    assert "error:" in err


def test_output_flag_writes_the_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(
        ["enumerate", "-g", ABC, "--max-len", "9", "-o", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines() == [
        "a b c",
        "a a b b c c",
        "a a a b b b c c c",
    ]


def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(["validate", "-g", ABC, "-o", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not target.exists()


def test_repeat_invocations_are_byte_identical(capsys):
    argv = ["generate", "-g", CHAIN, "--policy", "sample", "--seed", "42"]
    first = run(argv, capsys)
    second = run(argv, capsys)
    assert first == second


README = DATA.parents[1] / "README.md"
TRANSCRIPT_RE = re.compile(r"^```\n\$ (lcsg [^\n]*)\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_transcripts_are_what_the_commands_print(monkeypatch, capsys):
    transcripts = TRANSCRIPT_RE.findall(README.read_text())
    assert len(transcripts) == 2
    monkeypatch.chdir(README.parent)
    for command, printed in transcripts:
        assert run(shlex.split(command)[1:], capsys) == (0, printed, ""), command


COMMAND_BLOCK_RE = re.compile(r"^## Command line\n.*?^```sh\n(.*?)^```$", re.DOTALL | re.MULTILINE)
LIBRARY_RE = re.compile(r"^## Library\n\n```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_command_lines_run_from_the_root(monkeypatch, capsys):
    block = COMMAND_BLOCK_RE.search(README.read_text()).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 10
    monkeypatch.chdir(README.parent)
    for argv in commands:
        assert argv[0] == "lcsg"
        code, _, err = run(argv[1:], capsys)
        assert code in (0, 1), (argv, err)


def test_readme_library_example_runs_from_the_root(monkeypatch):
    monkeypatch.chdir(README.parent)
    exec(LIBRARY_RE.search(README.read_text()).group(1), {})


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "lcsg.cli", "validate", "-g", ABC],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "valid noncontracting=true\n"
