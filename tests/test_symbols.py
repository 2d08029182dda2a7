"""Interned symbols: one shared instance per (name, kind)."""

from __future__ import annotations

import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
import weakref

import pytest

from lcsg import Symbol, SymbolKind, SymbolString, nonterminal, terminal


def test_every_constructor_hands_out_the_one_instance():
    assert terminal("x") is terminal("x")
    assert Symbol("x", SymbolKind.TERMINAL) is terminal("x")
    assert Symbol(name="x", kind=SymbolKind.NONTERMINAL) is nonterminal("x")
    assert terminal("x") is not nonterminal("x")


def test_pickle_copy_and_deepcopy_return_the_shared_instance():
    s = nonterminal("S")
    assert pickle.loads(pickle.dumps(s)) is s
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(SymbolString((s, s))))[1] is s


def test_symbols_stay_immutable():
    x = terminal("x")
    with pytest.raises(AttributeError):
        x.name = "y"
    with pytest.raises(AttributeError):
        del x.kind
    assert repr(x) == "x:T"


def test_name_errors_come_before_the_kind_error_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="non-empty"):
            Symbol("", "terminal")
        with pytest.raises(ValueError, match="whitespace"):
            nonterminal("a b")
        with pytest.raises(ValueError, match="reserved"):
            Symbol("->", None)
        with pytest.raises(ValueError, match="kind must be a SymbolKind"):
            Symbol("x", "terminal")


_PICKLE_A_SYMBOL = """
import pickle, sys
from lcsg import terminal
sys.stdout.buffer.write(pickle.dumps(terminal("shared")))
"""


def test_a_symbol_pickled_in_another_process_unpickles_to_the_local_instance():
    local = terminal("shared")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = subprocess.run(
        [sys.executable, "-c", _PICKLE_A_SYMBOL],
        env=dict(os.environ, PYTHONHASHSEED=seed),
        capture_output=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr.decode()
    assert pickle.loads(child.stdout) is local


def test_threads_interning_the_same_fresh_names_get_one_instance_per_name():
    names = [f"race{i}" for i in range(2000)]
    barrier = threading.Barrier(8)
    results: list[list[Symbol]] = [[] for _ in range(8)]

    def intern_all(k: int) -> None:
        barrier.wait(timeout=60)
        results[k] = [terminal(name) for name in names]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=intern_all, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, first in enumerate(results[0]):
        assert all(r[i] is first for r in results[1:]), names[i]


def test_a_symbol_nothing_references_is_freed():
    ref = weakref.ref(terminal("unreferenced"))
    gc.collect()
    assert ref() is None


def test_a_symbol_string_reprs_as_its_text_in_angle_brackets():
    assert repr(SymbolString((terminal("a"), nonterminal("B")))) == "<a B>"
    assert repr(SymbolString(())) == "<_>"
